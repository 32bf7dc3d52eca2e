package serve

import (
	"bytes"
	"encoding/binary"
	"testing"

	"nshd/internal/engine"
)

// FuzzDecodePartialResponse: every /partial response frame either fails to
// decode or decodes to scores that re-encode to exactly the same bytes; the
// decoder never panics and never allocates more payload than the frame
// carries. The expected n, k and fullD are read from the frame's own header,
// so the fuzzer controls every size the decoder multiplies.
func FuzzDecodePartialResponse(f *testing.F) {
	// Packed and float partials over a ragged two-block range; the corpus
	// under testdata/ holds these frames and truncated and length-inflated
	// variants of them.
	f.Add(appendPartialResponse(nil, &engine.PartialScores{N: 2, K: 3, Lo: 0, Hi: 300, FullD: 533, Packed: true,
		Ints: []int32{5, -7, 300, 0, -1 << 31, 1<<31 - 1}}, 7))
	f.Add(appendPartialResponse(nil, &engine.PartialScores{N: 2, K: 3, Lo: 256, Hi: 533, FullD: 533,
		Floats: []float32{0.5, -1.25, 3, 0, 0, 1e-40, 7, -8, 9.5, 1e30, -2, 4}}, 7))
	f.Fuzz(func(t *testing.T, frame []byte) {
		var n, k, fullD int
		if len(frame) >= partialRespHeaderLen {
			n = int(binary.LittleEndian.Uint32(frame[0:]))
			k = int(binary.LittleEndian.Uint32(frame[4:]))
			fullD = int(binary.LittleEndian.Uint32(frame[16:]))
		}
		ps := &engine.PartialScores{}
		version, err := decodePartialResponse(ps, frame, n, k, fullD)
		if err != nil {
			return
		}
		if got := 4 * (cap(ps.Ints) + cap(ps.Floats)); got > len(frame) {
			t.Fatalf("decoded %d payload bytes from a %d-byte frame", got, len(frame))
		}
		if re := appendPartialResponse(nil, ps, version); !bytes.Equal(re, frame) {
			t.Fatalf("round trip changed the frame:\n got %x\nwant %x", re, frame)
		}
	})
}
