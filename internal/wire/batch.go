package wire

import (
	"encoding/binary"
	"fmt"
)

// Batch frames are the cluster tier's group-commit container: one
// pipelined writer per upstream coalesces many concurrent client
// requests into a single multi-request frame per replica, sent down that
// replica's frame stream, and the replica answers all of them in one
// reply frame. Each sub-request is a
// complete nested frame of an existing kind — self-delimiting via its
// own length prefix — prefixed with a caller-chosen u32 tag that demuxes
// the sub-replies back to the waiting requests. Order on the wire is
// submission order, but the tags make the reply matching independent of
// it.
//
// Bodies:
//
//	BatchRequest  u32 nsub | nsub x (u32 tag | nested request frame)
//	              nested kinds: CellAllocateRequest, ReleaseRequest —
//	              the router->replica vocabulary
//	BatchReply    u32 nsub | nsub x (u32 tag | u8 status | payload)
//	              status 0: payload is a nested AllocateReply or
//	              ReleaseReply frame; status 1: payload is
//	              u16 http_status | u32 len | len bytes of the JSON
//	              error document (the serve error shape, so a partial
//	              per-sub failure carries its granted spans)
//
// Like every frame kind, batches parse strictly: a sub count that
// disagrees with the bytes on hand, a nested frame of the wrong kind,
// trailing garbage, or an unknown status byte is an error.

// Batch sub-reply status bytes.
const (
	batchSubOK  = 0x00
	batchSubErr = 0x01
)

// BatchSub is one sub-request view into a parsed batch-request frame.
// Frame is the complete nested frame and aliases the outer frame.
type BatchSub struct {
	Tag   uint32
	Frame []byte
}

// BatchSubReply is one sub-reply view into a parsed batch-reply frame.
// Status 0 means success and Frame is the nested reply frame; otherwise
// Status is the HTTP status of the failure and Frame is the JSON error
// document. Either way Frame aliases the outer frame.
type BatchSubReply struct {
	Tag    uint32
	Status int
	Frame  []byte
}

// BeginBatchRequest appends a batch-request header with placeholder
// length and sub count to dst. The caller records start := len(dst)
// before calling, appends each sub as AppendBatchTag followed by a
// nested request frame, then patches both placeholders with FinishBatch.
func BeginBatchRequest(dst []byte) []byte {
	dst = appendHeader(dst, KindBatchRequest, 4)
	return binary.LittleEndian.AppendUint32(dst, 0)
}

// BeginBatchReply appends a batch-reply header with placeholder length
// and sub count to dst; same Begin/Finish discipline as
// BeginBatchRequest.
func BeginBatchReply(dst []byte) []byte {
	dst = appendHeader(dst, KindBatchReply, 4)
	return binary.LittleEndian.AppendUint32(dst, 0)
}

// AppendBatchTag appends one sub-entry's demux tag.
func AppendBatchTag(dst []byte, tag uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, tag)
}

// AppendBatchOK appends the success status byte of one batch sub-reply;
// the caller follows it with the nested reply frame.
func AppendBatchOK(dst []byte) []byte {
	return append(dst, batchSubOK)
}

// AppendBatchSubError appends one failed sub-reply's payload (after its
// AppendBatchTag): the error status byte, the HTTP status, and the JSON
// error document.
func AppendBatchSubError(dst []byte, httpStatus int, doc []byte) []byte {
	dst = append(dst, batchSubErr)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(httpStatus))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(doc)))
	return append(dst, doc...)
}

// FinishBatch patches the outer frame length and sub count of a batch
// frame begun at start (the len(dst) the caller recorded before
// BeginBatchRequest/BeginBatchReply) and returns dst.
func FinishBatch(dst []byte, start, nsub int) []byte {
	bodyLen := len(dst) - start - headerLen
	binary.LittleEndian.PutUint32(dst[start:], uint32(bodyLen+1))
	binary.LittleEndian.PutUint32(dst[start+headerLen:], uint32(nsub))
	return dst
}

// nestedFrame slices one complete nested frame off the front of body,
// returning the frame and the remaining bytes.
func nestedFrame(body []byte) (frame, rest []byte, err error) {
	if len(body) < headerLen {
		return nil, body, fmt.Errorf("wire: nested frame truncated: %d bytes, header needs %d", len(body), headerLen)
	}
	nlen := binary.LittleEndian.Uint32(body)
	total := 4 + int64(nlen)
	if nlen < 1 || total > int64(len(body)) {
		return nil, body, fmt.Errorf("wire: nested frame declares %d payload bytes but %d remain", nlen, len(body)-4)
	}
	return body[:total], body[total:], nil
}

// ParseBatchRequest decodes a batch-request frame, appending the
// sub-request views to subs (pass a reused buffer's [:0] for an
// allocation-free parse). Every view's Frame aliases the input.
func ParseBatchRequest(frame []byte, subs []BatchSub) ([]BatchSub, error) {
	body, err := payload(frame, KindBatchRequest)
	if err != nil {
		return subs, err
	}
	if len(body) < 4 {
		return subs, fmt.Errorf("wire: batch request body is %d bytes, want >= 4", len(body))
	}
	n := binary.LittleEndian.Uint32(body)
	body = body[4:]
	if n == 0 {
		return subs, fmt.Errorf("wire: batch request declares zero sub-requests")
	}
	for i := uint32(0); i < n; i++ {
		if len(body) < 4 {
			return subs, fmt.Errorf("wire: batch request sub %d truncated: %d bytes left", i, len(body))
		}
		tag := binary.LittleEndian.Uint32(body)
		sub, rest, err := nestedFrame(body[4:])
		if err != nil {
			return subs, fmt.Errorf("wire: batch request sub %d: %w", i, err)
		}
		switch sub[4] {
		case KindCellAllocateRequest, KindReleaseRequest:
		default:
			return subs, fmt.Errorf("wire: batch request sub %d has kind 0x%02x; want cell allocate or release", i, sub[4])
		}
		subs = append(subs, BatchSub{Tag: tag, Frame: sub})
		body = rest
	}
	if len(body) != 0 {
		return subs, fmt.Errorf("wire: batch request carries %d trailing bytes", len(body))
	}
	return subs, nil
}

// ParseBatchReply decodes a batch-reply frame, appending the sub-reply
// views to subs (pass a reused buffer's [:0] for an allocation-free
// parse). Every view's Frame aliases the input.
func ParseBatchReply(frame []byte, subs []BatchSubReply) ([]BatchSubReply, error) {
	body, err := payload(frame, KindBatchReply)
	if err != nil {
		return subs, err
	}
	if len(body) < 4 {
		return subs, fmt.Errorf("wire: batch reply body is %d bytes, want >= 4", len(body))
	}
	n := binary.LittleEndian.Uint32(body)
	body = body[4:]
	if n == 0 {
		return subs, fmt.Errorf("wire: batch reply declares zero sub-replies")
	}
	for i := uint32(0); i < n; i++ {
		if len(body) < 5 {
			return subs, fmt.Errorf("wire: batch reply sub %d truncated: %d bytes left", i, len(body))
		}
		tag := binary.LittleEndian.Uint32(body)
		status := body[4]
		body = body[5:]
		switch status {
		case batchSubOK:
			sub, rest, err := nestedFrame(body)
			if err != nil {
				return subs, fmt.Errorf("wire: batch reply sub %d: %w", i, err)
			}
			switch sub[4] {
			case KindAllocateReply, KindReleaseReply:
			default:
				return subs, fmt.Errorf("wire: batch reply sub %d has kind 0x%02x; want allocate or release reply", i, sub[4])
			}
			subs = append(subs, BatchSubReply{Tag: tag, Frame: sub})
			body = rest
		case batchSubErr:
			if len(body) < 6 {
				return subs, fmt.Errorf("wire: batch reply error sub %d truncated: %d bytes left", i, len(body))
			}
			httpStatus := int(binary.LittleEndian.Uint16(body))
			if httpStatus < 100 || httpStatus > 599 {
				return subs, fmt.Errorf("wire: batch reply error sub %d carries HTTP status %d", i, httpStatus)
			}
			dlen := binary.LittleEndian.Uint32(body[2:])
			if int64(dlen) > int64(len(body)-6) {
				return subs, fmt.Errorf("wire: batch reply error sub %d declares %d document bytes but %d remain", i, dlen, len(body)-6)
			}
			subs = append(subs, BatchSubReply{Tag: tag, Status: httpStatus, Frame: body[6 : 6+dlen]})
			body = body[6+dlen:]
		default:
			return subs, fmt.Errorf("wire: batch reply sub %d carries unknown status 0x%02x", i, status)
		}
	}
	if len(body) != 0 {
		return subs, fmt.Errorf("wire: batch reply carries %d trailing bytes", len(body))
	}
	return subs, nil
}
