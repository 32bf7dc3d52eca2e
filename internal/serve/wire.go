package serve

import (
	"encoding/binary"
	"fmt"
	"math"

	"nshd/internal/engine"
)

// Wire format of the sharded serving tier. Everything is little-endian and
// length-prefixed so both ends can size-check a frame before touching it —
// a corrupt or hostile length prefix must cost a clean 400, not a
// multi-gigabyte allocation (see maxPartialFrame and the explicit caps in
// every decoder).
//
// POST /partial request:
//
//	uint32  n        sample count
//	uint64  version  model version to serve (0 = whatever is current)
//	float32 ×n·C·H·W sample data
//
// response:
//
//	uint32  n         samples scored
//	uint32  k         classes
//	uint32  lo, hi    hypervector column range of the emitting shard
//	uint32  fullD     full model dimension
//	uint8   kernel    1 = packed (int32 payload), 0 = float (float32 payload)
//	uint64  version   model version actually served
//	payload           n·k int32, or blocks·n·k float32 (block-major,
//	                  blocks = ceil((hi−lo)/256)) — see engine.PartialScores
const (
	partialReqHeaderLen  = 4 + 8
	partialRespHeaderLen = 5*4 + 1 + 8

	kernelFloat  = 0
	kernelPacked = 1
)

// frameSamples bounds a frame's sample count before any payload-sized
// allocation: the count must be positive, within the server's batch limit,
// and small enough that n·sampleLen·4 bytes cannot overflow or balloon.
func frameSamples(n uint32, maxBatch int) (int, error) {
	if n < 1 || int64(n) > int64(maxBatch) {
		return 0, fmt.Errorf("frame of %d samples (want 1..%d)", n, maxBatch)
	}
	return int(n), nil
}

// appendPartialRequest appends a /partial request frame to dst (reusing its
// capacity) for the first n·sampleLen floats of data.
func appendPartialRequest(dst []byte, data []float32, n int, version uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint64(dst, version)
	for _, v := range data {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}

// appendPartialResponse appends ps as a /partial response frame to dst,
// reusing its capacity.
func appendPartialResponse(dst []byte, ps *engine.PartialScores, version uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(ps.N))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(ps.K))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(ps.Lo))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(ps.Hi))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(ps.FullD))
	if ps.Packed {
		dst = append(dst, kernelPacked)
	} else {
		dst = append(dst, kernelFloat)
	}
	dst = binary.LittleEndian.AppendUint64(dst, version)
	if ps.Packed {
		for _, v := range ps.Ints {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
		}
	} else {
		for _, v := range ps.Floats {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
		}
	}
	return dst
}

// decodePartialResponse parses a /partial response frame into ps, reusing
// its backing arrays. Every size is validated against the frame's own length
// and the caller's expectations before the payload is read.
func decodePartialResponse(ps *engine.PartialScores, frame []byte, wantN, wantK, wantFullD int) (version uint64, err error) {
	if len(frame) < partialRespHeaderLen {
		return 0, fmt.Errorf("serve: partial response of %d bytes, header needs %d", len(frame), partialRespHeaderLen)
	}
	n := int(binary.LittleEndian.Uint32(frame[0:]))
	k := int(binary.LittleEndian.Uint32(frame[4:]))
	lo := int(binary.LittleEndian.Uint32(frame[8:]))
	hi := int(binary.LittleEndian.Uint32(frame[12:]))
	fullD := int(binary.LittleEndian.Uint32(frame[16:]))
	kernel := frame[20]
	version = binary.LittleEndian.Uint64(frame[21:])
	if n != wantN || k != wantK || fullD != wantFullD {
		return 0, fmt.Errorf("serve: partial response n=%d k=%d fullD=%d, want n=%d k=%d fullD=%d", n, k, fullD, wantN, wantK, wantFullD)
	}
	if lo < 0 || hi <= lo || hi > fullD {
		return 0, fmt.Errorf("serve: partial response shard [%d,%d) of %d", lo, hi, fullD)
	}
	if kernel != kernelFloat && kernel != kernelPacked {
		return 0, fmt.Errorf("serve: partial response kernel %d", kernel)
	}
	ps.N, ps.K, ps.Lo, ps.Hi, ps.FullD = n, k, lo, hi, fullD
	ps.Packed = kernel == kernelPacked
	payload := frame[partialRespHeaderLen:]
	per := 1
	if !ps.Packed {
		per = ps.Blocks()
	}
	// want = n·k·per payload words, each factor bounded by the frame's own
	// word count before it is multiplied in, so no expectation, however
	// large, can overflow into a length that matches.
	words, want := len(payload)/4, 0
	if n > 0 && k > 0 {
		if k > words/n || per > words/(n*k) {
			return 0, fmt.Errorf("serve: partial response payload %d bytes, want %d×%d×%d words", len(payload), n, k, per)
		}
		want = n * k * per
	}
	if len(payload) != want*4 {
		return 0, fmt.Errorf("serve: partial response payload %d bytes, want %d", len(payload), want*4)
	}
	if ps.Packed {
		ps.Floats = ps.Floats[:0]
		if cap(ps.Ints) < want {
			ps.Ints = make([]int32, want)
		}
		ps.Ints = ps.Ints[:want]
		for i := range ps.Ints {
			ps.Ints[i] = int32(binary.LittleEndian.Uint32(payload[i*4:]))
		}
	} else {
		ps.Ints = ps.Ints[:0]
		if cap(ps.Floats) < want {
			ps.Floats = make([]float32, want)
		}
		ps.Floats = ps.Floats[:want]
		for i := range ps.Floats {
			ps.Floats[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[i*4:]))
		}
	}
	return version, nil
}
