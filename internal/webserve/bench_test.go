package webserve

import (
	"io"
	"testing"

	"repro/internal/units"
	"repro/internal/workload"
)

// benchSizes are the payload sizes the per-layer benchmarks cover: the top
// of serve-small's object range and Table 1's mid and upper object sizes.
var benchSizes = []struct {
	name string
	size units.ByteSize
}{
	{"8KB", 8 * units.KB},
	{"1MB", units.MB},
	{"4MB", 4 * units.MB},
}

// benchWorkload holds one object per benchSizes entry, object i of size
// benchSizes[i].
func benchWorkload() *workload.Workload {
	w := &workload.Workload{Seed: 7, Sites: make([]workload.Site, 4)}
	for i, s := range benchSizes {
		w.Objects = append(w.Objects, workload.Object{ID: workload.ObjectID(i), Size: s.size})
	}
	return w
}

// BenchmarkObjectReader opens a site's payload and drains it, as a server
// does per object request.
func BenchmarkObjectReader(b *testing.B) {
	w := benchWorkload()
	for i, s := range benchSizes {
		k := workload.ObjectID(i)
		b.Run(s.name, func(b *testing.B) {
			b.SetBytes(int64(s.size))
			b.ReportAllocs()
			buf := make([]byte, 32*1024)
			for n := 0; n < b.N; n++ {
				if _, err := io.CopyBuffer(io.Discard, ObjectReader(w, 2, k), buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerifyObject checks a genuine site payload end to end, as a
// verifying client does per object.
func BenchmarkVerifyObject(b *testing.B) {
	w := benchWorkload()
	for i, s := range benchSizes {
		k := workload.ObjectID(i)
		data, err := io.ReadAll(ObjectReader(w, 2, k))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(s.name, func(b *testing.B) {
			b.SetBytes(int64(s.size))
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if err := VerifyObject(w, k, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBodyCRC compares the header checksum computed over every body
// byte (streaming) with the combination from the block's CRC (combined).
func BenchmarkBodyCRC(b *testing.B) {
	var block [contentBlockSize]byte
	payloadBlock(&block, 7, 1, 2)
	for _, form := range []struct {
		name string
		crc  func([]byte, int64) uint32
	}{
		{"streaming", streamingBodyCRC},
		{"combined", bodyCRC},
	} {
		for _, s := range benchSizes {
			n := int64(s.size) - PayloadHeaderLen
			b.Run(form.name+"/"+s.name, func(b *testing.B) {
				b.SetBytes(n)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					form.crc(block[:], n)
				}
			})
		}
	}
}

// BenchmarkDecodePayloadHeader prices the header parse alone: the in-place
// parser and, for reference, the fmt.Sscanf decode it replaced (kept in
// header_test.go for the differential test).
func BenchmarkDecodePayloadHeader(b *testing.B) {
	hdr := EncodePayloadHeader(PayloadHeader{Object: 1234, Source: 7, Seed: 0x42, Length: 1 << 20, Sum: 0xdeadbeef})
	for _, c := range []struct {
		name   string
		decode func([]byte) (PayloadHeader, error)
	}{{"inplace", DecodePayloadHeader}, {"sscanf", decodeHeaderSscanf}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.decode(hdr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
