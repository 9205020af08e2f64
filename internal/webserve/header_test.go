package webserve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workload"
)

// decodeHeaderSscanf is DecodePayloadHeader as it was written before the
// in-place parser: the same checks, with the line parsed by fmt.Sscanf. It
// is the reference TestDecodePayloadHeaderMatchesSscanf compares against.
func decodeHeaderSscanf(data []byte) (PayloadHeader, error) {
	var h PayloadHeader
	if len(data) < PayloadHeaderLen {
		return h, &IntegrityError{Reason: fmt.Sprintf("payload too short for header (%d bytes)", len(data))}
	}
	if data[PayloadHeaderLen-1] != '\n' {
		return h, &IntegrityError{Reason: "payload header not newline-terminated"}
	}
	line := bytes.TrimRight(data[:PayloadHeaderLen-1], " ")
	var obj int
	n, err := fmt.Sscanf(string(line), "REPL1 obj=%d src=%d seed=%x len=%d sum=%x",
		&obj, &h.Source, &h.Seed, &h.Length, &h.Sum)
	if err != nil || n != 5 {
		return h, &IntegrityError{Reason: fmt.Sprintf("malformed payload header %q", line)}
	}
	if obj < 0 || h.Length < PayloadHeaderLen {
		return h, &IntegrityError{Reason: fmt.Sprintf("payload header out of range (obj=%d len=%d)", obj, h.Length)}
	}
	h.Object = workload.ObjectID(obj)
	var enc [PayloadHeaderLen]byte
	encodeHeader(&enc, h)
	if !bytes.Equal(enc[:], data[:PayloadHeaderLen]) {
		return h, &IntegrityError{Object: h.Object, Reason: "non-canonical payload header"}
	}
	return h, nil
}

// fuzzCorpus reads the committed FuzzPayloadRoundTrip corpus entries.
func fuzzCorpus(t *testing.T) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzPayloadRoundTrip", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzPayloadRoundTrip corpus (%v)", err)
	}
	var out [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
			!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			t.Fatalf("%s: unexpected corpus format", f)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// headerLine pads line with spaces to a full newline-terminated header,
// cutting it if it is too long.
func headerLine(line string) []byte {
	b := make([]byte, PayloadHeaderLen)
	for i := range b {
		b[i] = ' '
	}
	copy(b[:PayloadHeaderLen-1], line)
	b[PayloadHeaderLen-1] = '\n'
	return b
}

// headerEdgeCases are lines Sscanf treats leniently or rejects for a
// reason a byte-exact parser could miss: signs, spaces of every kind,
// leading zeros, case, overflow at each operand's width, and text
// after the last operand.
var headerEdgeCases = []string{
	"REPL1 obj=3 src=1 seed=0000000000000042 len=29556 sum=770d9b18",
	"REPL1 obj=+3 src=1 seed=0000000000000042 len=29556 sum=770d9b18",
	"REPL1 obj=-3 src=1 seed=0000000000000042 len=29556 sum=770d9b18",
	"REPL1 obj=-0 src=-0 seed=0 len=+96 sum=0",
	"REPL1 obj= 3 src=\t1 seed=\v42 len=\f29556 sum=\r770d9b18",
	"REPL1\tobj=3\tsrc=1\tseed=42\tlen=96\tsum=0",
	"REPL1\u00a0obj=3\u2003src=1\u3000seed=42\u0085len=96\u1680sum=0",
	"REPL1 obj=\u00a03 src=1 seed=42 len=96 sum=0",
	"REPL1  obj=3   src=1 seed=42 len=96 sum=0",
	"REPL1\nobj=3 src=1 seed=42 len=96 sum=0",
	"REPL1 obj=\n3 src=1 seed=42 len=96 sum=0",
	"REPL1 obj=3 src=1 seed=42 len=96 sum=\r\n0",
	"REPL1 obj=3 src=1 seed=+42 len=96 sum=0",
	"REPL1 obj=3 src=1 seed=0x42 len=96 sum=0",
	"REPL1 obj=3 src=1 seed=ABCDEF0123456789 len=96 sum=DEADBEEF",
	"REPL1 obj=3 src=1 seed=abcdef0123456789 len=96 sum=deadbeef",
	"REPL1 obj=3 src=1 seed=ffffffffffffffff len=96 sum=ffffffff",
	"REPL1 obj=3 src=1 seed=10000000000000000 len=96 sum=0",
	"REPL1 obj=3 src=1 seed=42 len=96 sum=100000000",
	"REPL1 obj=3 src=1 seed=42 len=96 sum=0000000000000000000000000000001",
	"REPL1 obj=9223372036854775807 src=1 seed=42 len=96 sum=0",
	"REPL1 obj=9223372036854775808 src=1 seed=42 len=96 sum=0",
	"REPL1 obj=-9223372036854775808 src=1 seed=42 len=96 sum=0",
	"REPL1 obj=-9223372036854775809 src=1 seed=42 len=96 sum=0",
	"REPL1 obj=18446744073709551615 src=1 seed=42 len=96 sum=0",
	"REPL1 obj=18446744073709551616 src=1 seed=42 len=96 sum=0",
	"REPL1 obj=3 src=1 seed=42 len=9223372036854775807 sum=0",
	"REPL1 obj=3 src=1 seed=42 len=95 sum=0",
	"REPL1 obj=3 src=1 seed=42 len=-96 sum=0",
	"REPL1 obj=3 src=1 seed=42 len=96 sum=0 trailing",
	"REPL1 obj=3 src=1 seed=42 len=96 sum=0xyz",
	"REPL1 obj=3 src=1 seed=42 len=96 sum=",
	"REPL1 obj=3 src=1 seed=42 len=96 sum",
	"REPL1 obj=3 src=1 seed=42 len=96",
	"REPL1 obj=3 src=1 seed=42 len=",
	"REPL1 obj=3 src=1 seed=g len=96 sum=0",
	"REPL1 obj=3 src=+-1 seed=42 len=96 sum=0",
	"REPL1 obj=3 src=- 1 seed=42 len=96 sum=0",
	"REPL1 obj=3src=1 seed=42 len=96 sum=0",
	"REPL1obj=3 src=1 seed=42 len=96 sum=0",
	"REPL1 obj=3 src=1 seed=\xff42 len=96 sum=0",
	"REPL1 obj=3 src=1 seed=42 len=96 sum=0\x00",
	"REPL1 obj=3 src=1 seed=42\xc2 len=96 sum=0",
	"REPL2 obj=3 src=1 seed=42 len=96 sum=0",
	" REPL1 obj=3 src=1 seed=42 len=96 sum=0",
	"REPL1 ",
	"REPL1",
	"",
}

// mutateHeader applies one to three seeded edits to a header: byte
// replacements, insertions and deletions drawn from an alphabet of
// digits, signs, hex letters, ASCII and Unicode spaces, newlines and
// invalid UTF-8. Most results are re-padded to a full header line so the
// edit reaches the parser instead of the length and newline checks.
func mutateHeader(r *rand.Rand, base []byte) []byte {
	alphabet := []string{"0", "1", "9", "a", "F", "x", "+", "-", "=", " ", "\t", "\n", "\r", "\v",
		"\u00a0", "\u0085", "\u2003", "\u3000", "\xc2", "\xff", "\x00", "o", "s", "REPL1 "}
	line := []byte(strings.TrimRight(string(base[:min(len(base), PayloadHeaderLen-1)]), " "))
	for edits := 1 + r.IntN(3); edits > 0; edits-- {
		at := r.IntN(len(line) + 1)
		ins := []byte(alphabet[r.IntN(len(alphabet))])
		if r.IntN(4) == 0 {
			ins = []byte{byte(r.IntN(256))}
		}
		switch r.IntN(3) {
		case 0: // replace
			if at < len(line) {
				line = append(line[:at], append(ins, line[min(at+1, len(line)):]...)...)
			}
		case 1: // insert
			line = append(line[:at], append(ins, line[at:]...)...)
		default: // delete
			if at < len(line) {
				line = append(line[:at], line[at+1:]...)
			}
		}
	}
	if r.IntN(8) == 0 {
		return append(line, '\n')
	}
	return headerLine(string(line))
}

// TestDecodePayloadHeaderMatchesSscanf is the differential test of the in-place
// header parser against the Sscanf decode it replaced: over the
// FuzzPayloadRoundTrip corpus and seeds, the edge cases above and seeded
// mutations of all of them, both must return the same header and the same
// error, field for field.
func TestDecodePayloadHeaderMatchesSscanf(t *testing.T) {
	w := fuzzWorkload(t)
	genuine, err := io.ReadAll(ObjectReader(w, RepoSource, 0))
	if err != nil {
		t.Fatal(err)
	}
	site, err := io.ReadAll(ObjectReader(w, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	inputs := append(fuzzCorpus(t), genuine, site, genuine[:PayloadHeaderLen], genuine[:PayloadHeaderLen-1],
		[]byte("REPL1 obj=0 src=-1 seed=0000000000000000 len=96 sum=00000000"), []byte("not a payload at all"))
	for _, c := range headerEdgeCases {
		inputs = append(inputs, headerLine(c), []byte(c+"\n"))
	}
	r := rand.New(rand.NewPCG(2026, 15))
	bases := len(inputs)
	for i := 0; i < 40000; i++ {
		inputs = append(inputs, mutateHeader(r, inputs[r.IntN(bases)]))
	}

	decoded := 0
	for _, in := range inputs {
		wantH, wantErr := decodeHeaderSscanf(in)
		gotH, gotErr := DecodePayloadHeader(in)
		if gotH != wantH || !sameIntegrityError(gotErr, wantErr) {
			t.Fatalf("input %q:\nin place: %+v, %v\nSscanf:   %+v, %v", in, gotH, gotErr, wantH, wantErr)
		}
		if gotErr == nil {
			decoded++
		}
	}
	if decoded == 0 {
		t.Error("no input decoded; the comparison never reached a valid header")
	}
}

func sameIntegrityError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	var ea, eb *IntegrityError
	return errors.As(a, &ea) && errors.As(b, &eb) && *ea == *eb
}
