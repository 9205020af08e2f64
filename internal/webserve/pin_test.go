package webserve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/workload"
)

// pinWorkload is a hand-built workload whose object sizes hit every shape
// the payload codec distinguishes: a size below the header (truncated
// header), an empty body, bodies shorter than one block, exactly one and
// exactly three blocks, one byte either side of a block boundary, and
// large bodies. ObjectReader and verification read only the seed, the
// object sizes and the site count.
func pinWorkload() *workload.Workload {
	sizes := []units.ByteSize{
		50,
		PayloadHeaderLen,
		PayloadHeaderLen + 100,
		PayloadHeaderLen + contentBlockSize,
		PayloadHeaderLen + 3*contentBlockSize,
		PayloadHeaderLen + 3*contentBlockSize - 1,
		PayloadHeaderLen + 3*contentBlockSize + 1,
		PayloadHeaderLen + 3*contentBlockSize + 17,
		units.MB + 5,
		4 * units.MB,
	}
	w := &workload.Workload{Seed: 0x5eed1234abcd, Sites: make([]workload.Site, 3)}
	for i, sz := range sizes {
		w.Objects = append(w.Objects, workload.Object{ID: workload.ObjectID(i), Size: sz})
	}
	return w
}

// TestPayloadBytesPinned pins ObjectReader byte for byte: one SHA-256 over
// every (object, source) payload of pinWorkload, the repository's copy and
// two sites' copies. The sum was taken from the original codec (per-byte
// keystream loop, streaming body CRC, fmt-rendered header); any change to
// a served byte breaks it.
func TestPayloadBytesPinned(t *testing.T) {
	const want = "8b721b4a529f3372a1d90bc00afe52e052ee9c9ea47c8a9b433fe39c4333581d"
	w := pinWorkload()
	h := sha256.New()
	for k := range w.Objects {
		for _, src := range []int{RepoSource, 0, 2} {
			n, err := io.Copy(h, ObjectReader(w, src, workload.ObjectID(k)))
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(w.Objects[k].Size) {
				t.Fatalf("object %d src %d: %d bytes, want %d", k, src, n, w.Objects[k].Size)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("payloads hash to %s, want %s", got, want)
	}
}

// TestVerifyReasonsPinned pins what verification reports for damaged
// bodies. A plain bit-flip anywhere fails the checksum; a forged pair (the
// header's CRC rewritten to match the tampered body) passes the checksum
// and fails the keystream compare at exactly the flipped byte.
func TestVerifyReasonsPinned(t *testing.T) {
	w := pinWorkload()
	const k = workload.ObjectID(7) // three blocks plus 17 bytes
	genuine, err := io.ReadAll(ObjectReader(w, 0, k))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyObjectFrom(w, 0, k, genuine); err != nil {
		t.Fatalf("genuine payload rejected: %v", err)
	}
	for _, c := range []struct {
		name   string
		off    int // absolute byte offset of the flip
		forged string
	}{
		{"block0", PayloadHeaderLen + 10, "body corrupt at byte 106"},
		{"block3-boundary", PayloadHeaderLen + 3*contentBlockSize, "body corrupt at byte 12384"},
		{"last-byte", len(genuine) - 1, "body corrupt at byte 12400"},
	} {
		data := append([]byte(nil), genuine...)
		data[c.off] ^= 0x40
		if got := reason(VerifyObject(w, k, data)); got != "body checksum mismatch" {
			t.Errorf("%s: flip reads %q, want the checksum mismatch", c.name, got)
		}
		h, err := DecodePayloadHeader(data)
		if err != nil {
			t.Fatal(err)
		}
		h.Sum = bodyCRC(data[PayloadHeaderLen:], int64(len(data)-PayloadHeaderLen))
		copy(data, EncodePayloadHeader(h))
		if got := reason(VerifyObject(w, k, data)); got != c.forged {
			t.Errorf("%s: forged pair reads %q, want %q", c.name, got, c.forged)
		}
	}
}

// reason extracts an *IntegrityError's reason, or describes the error.
func reason(err error) string {
	var ie *IntegrityError
	if errors.As(err, &ie) {
		return ie.Reason
	}
	return fmt.Sprintf("not an integrity error: %v", err)
}

// streamingBodyCRC is the reference bodyCRC: the CRC-32 of block repeated
// out to n bytes, computed over every byte.
func streamingBodyCRC(block []byte, n int64) uint32 {
	h := crc32.NewIEEE()
	for n > 0 && len(block) > 0 {
		chunk := block[:min(int64(len(block)), n)]
		h.Write(chunk)
		n -= int64(len(chunk))
	}
	return h.Sum32()
}

// TestBodyCRCCombineMatchesStreaming checks the combined header CRC against
// the streaming one: at every block boundary ±1 up to 8 MB for the payload
// block, and at seeded lengths for seeded block sizes (the forgery tests
// pass a whole body as the block).
func TestBodyCRCCombineMatchesStreaming(t *testing.T) {
	const limit = 8 << 20
	var block [contentBlockSize]byte
	payloadBlock(&block, 99, 12, 3)

	// One pass over the 8 MB stream, checking the running CRC at each
	// boundary and its neighbours.
	var running uint32
	var done int64
	advance := func(to int64) {
		for done < to {
			off := done % contentBlockSize
			n := min(contentBlockSize-off, to-done)
			running = crc32.Update(running, crc32.IEEETable, block[off:off+n])
			done += n
		}
	}
	for b := int64(0); b*contentBlockSize <= limit; b++ {
		for _, n := range []int64{b*contentBlockSize - 1, b * contentBlockSize, b*contentBlockSize + 1} {
			if n < done {
				continue
			}
			advance(n)
			if got := bodyCRC(block[:], n); got != running {
				t.Fatalf("n=%d: combined %08x, streaming %08x", n, got, running)
			}
		}
	}

	s := rng.New(20)
	for i := 0; i < 48; i++ {
		blk := make([]byte, 1+s.IntN(3*contentBlockSize))
		for j := range blk {
			blk[j] = byte(s.IntN(256))
		}
		n := int64(s.IntN(limit + 1))
		if i%4 == 0 {
			n = int64(len(blk)) * int64(s.IntN(limit/len(blk)+1)) // exact multiple
		}
		if got, want := bodyCRC(blk, n), streamingBodyCRC(blk, n); got != want {
			t.Fatalf("block %d bytes, n=%d: combined %08x, streaming %08x", len(blk), n, got, want)
		}
	}
}

// TestEncodePayloadHeaderMatchesFmt pins the strconv header encoder to the
// fmt rendering it replaced, including values too wide for the line.
func TestEncodePayloadHeaderMatchesFmt(t *testing.T) {
	ref := func(h PayloadHeader) []byte {
		line := fmt.Sprintf("REPL1 obj=%d src=%d seed=%016x len=%d sum=%08x",
			h.Object, h.Source, h.Seed, h.Length, h.Sum)
		buf := bytes.Repeat([]byte{' '}, PayloadHeaderLen)
		copy(buf, line)
		buf[PayloadHeaderLen-1] = '\n'
		return buf
	}
	cases := []PayloadHeader{
		{},
		{Object: 7, Source: RepoSource, Seed: 0xabc, Length: 4096, Sum: 0xf},
		{Object: 116, Source: 2, Seed: 66, Length: 49152, Sum: 0x89abcdef},
		{Object: math.MaxInt, Source: math.MinInt, Seed: math.MaxUint64, Length: math.MinInt64, Sum: math.MaxUint32},
		{Object: -1, Source: math.MaxInt, Seed: 1, Length: math.MaxInt64, Sum: 0},
	}
	s := rng.New(21)
	for i := 0; i < 200; i++ {
		cases = append(cases, PayloadHeader{
			Object: workload.ObjectID(s.Uint64() >> (s.IntN(64))),
			Source: int(s.Uint64()>>s.IntN(64)) - 1<<20,
			Seed:   s.Uint64() >> s.IntN(64),
			Length: int64(s.Uint64() >> s.IntN(64)),
			Sum:    uint32(s.Uint64() >> s.IntN(64)),
		})
	}
	for _, h := range cases {
		if got, want := EncodePayloadHeader(h), ref(h); !bytes.Equal(got, want) {
			t.Fatalf("%+v:\n%q\nwant\n%q", h, got, want)
		}
	}
}
