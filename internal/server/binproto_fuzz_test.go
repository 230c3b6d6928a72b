package server

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"testing"

	"cisgraph/internal/graph"
	"cisgraph/internal/resilience"
)

// binFrameAllocBound is FuzzBinFrame's allocation bound for a stream of l
// bytes: a payload buffer grown as its bytes arrive (at most twice what
// arrived plus one resilience.PayloadChunk) and ~1.4 B of decoded update per
// byte, doubled by regrowth, plus 16 KiB for the decoder's fixed costs.
func binFrameAllocBound(l int) uint64 {
	return 8*uint64(l) + resilience.PayloadChunk + 16<<10
}

// FuzzBinFrame throws arbitrary byte streams at the CGBIN/2 decoder — hello,
// len|crc framing, session prefix, record parse — asserting it never panics,
// never allocates past the protocol bound nor past binFrameAllocBound,
// whatever lengths its headers claim, and that whatever it accepts
// re-encodes to a byte-stable frame (decode∘encode is the identity on the
// decoder's image, NaN weights included).
func FuzzBinFrame(f *testing.F) {
	ok := append([]byte(BinHello2), AppendBinFrameSession(nil, 0xfeed, 42, []graph.Update{
		graph.Add(1, 2, 3.5), {Arc: graph.Arc{From: 7, To: 9}, Del: true},
	})...)
	okOne := append([]byte(BinHello2), AppendBinFrameSession(nil, 1, 0, []graph.Update{
		graph.Add(0, 1, 1),
	})...)
	f.Add(ok)
	f.Add(okOne)
	f.Add(ok[:len(BinHello2)+12])                                              // torn frame
	f.Add(append([]byte(BinHello2), make([]byte, 8)...))                       // empty frame (no session prefix)
	f.Add([]byte("CGBIN/9\njunk"))                                             // unknown hello
	f.Add(append([]byte("CGBIN/1\n"), okOne[len(BinHello2):]...))              // retired hello
	f.Add(append([]byte(BinHello2), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0))       // oversized length
	f.Add(append([]byte(BinHello2), okOne[len(BinHello2):]...)[:len(okOne)-3]) // truncated payload
	bad := append([]byte{}, ok...)                                             // corrupt one payload byte → CRC
	bad[len(bad)-1] ^= 0x40
	f.Add(bad)
	op2 := append([]byte(BinHello2), AppendBinFrameSession(nil, 1, 1, []graph.Update{graph.Del(1, 2, 3)})...)
	op2[len(BinHello2)+8+BinSessionOverhead] = 2 // neither add nor delete, under a matching CRC
	binary.LittleEndian.PutUint32(op2[len(BinHello2)+4:], crc32.ChecksumIEEE(op2[len(BinHello2)+8:]))
	f.Add(op2)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var hello [len(BinHello2)]byte
		if _, err := io.ReadFull(r, hello[:]); err != nil || string(hello[:]) != BinHello2 {
			return // the server closes any other hello before framing starts
		}
		var ups []graph.Update
		var payloadBuf []byte
		var decoded uint64
		defer func() {
			if limit := binFrameAllocBound(len(data)); decoded > limit {
				t.Fatalf("%d input bytes allocated %d bytes decoding, over %d", len(data), decoded, limit)
			}
		}()
		for i := 0; i < 64; i++ {
			var err error
			var sid, seq uint64
			decoded += allocatedBy(func() {
				ups, payloadBuf, sid, seq, err = ReadBinFrameSession(r, ups[:0], payloadBuf)
			})
			if err != nil {
				return // decoder refused; the connection would close
			}
			// The allocation bound holds no matter what the length field said.
			if cap(payloadBuf) > BinMaxFramePayload+BinSessionOverhead {
				t.Fatalf("payload buffer grew to %d, bound is %d", cap(payloadBuf), BinMaxFramePayload+BinSessionOverhead)
			}
			if sid == 0 {
				t.Fatal("decoder accepted reserved session id 0")
			}
			// Round-trip stability: encode what was decoded, decode it again,
			// re-encode — both encodings must be byte-identical (exact for
			// every accepted weight bit pattern, NaNs included).
			enc1 := AppendBinFrameSession(nil, sid, seq, ups)
			ups2, _, sid2, seq2, err2 := ReadBinFrameSession(bytes.NewReader(enc1), nil, nil)
			if err2 != nil {
				t.Fatalf("re-decoding an encoded frame failed: %v", err2)
			}
			if sid2 != sid || seq2 != seq {
				t.Fatalf("session tag mutated in round trip: (%d,%d) -> (%d,%d)", sid, seq, sid2, seq2)
			}
			if enc2 := AppendBinFrameSession(nil, sid2, seq2, ups2); !bytes.Equal(enc1, enc2) {
				t.Fatalf("unstable round trip:\n enc1 %x\n enc2 %x", enc1, enc2)
			}
		}
	})
}
