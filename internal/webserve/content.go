// Package webserve implements the paper's Section-2 system over net/http:
// a repository server and local site servers that serve real HTML and
// multimedia bytes, with the local servers rewriting MO URLs on the fly
// from their reference databases, plus a client that downloads a page the
// way the paper's browser does — the local chain and the repository chain
// in parallel over persistent connections. It exists to demonstrate (and
// integration-test) that the planner's placements drive a working serving
// system, not only the simulator.
package webserve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strconv"
	"unicode"
	"unicode/utf8"

	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/workload"
)

// Self-verifying payloads: every multimedia object the cluster serves is a
// pure function of (workload seed, object ID, serving source), with a
// fixed-width header embedding those coordinates plus a CRC of the body.
// Any fetched body can therefore be verified against the plan with no
// side-channel state — the client, the scrubber and the tests all share one
// end-to-end replication-correctness oracle (ROADMAP item 2's oval-style
// payloads).
const (
	// contentBlockSize is the repeating unit of an object's synthetic body.
	contentBlockSize = 4096
	// PayloadHeaderLen is the exact byte length of the payload header line.
	// The fixed fields take 55 bytes; 96 leaves 40 digits of headroom for
	// the obj/src/len decimals before the newline terminator.
	PayloadHeaderLen = 96
	// RepoSource is the PayloadHeader.Source value of repository-served
	// payloads; replica copies carry their site index instead.
	RepoSource = -1
)

// payloadContentStream labels the rng child stream the body keystream is
// derived from, disjoint from every other stream family in the repo.
const payloadContentStream uint64 = 421

// PayloadHeader is the decoded form of a payload's leading PayloadHeaderLen bytes.
type PayloadHeader struct {
	// Object is the multimedia object the payload claims to be.
	Object workload.ObjectID
	// Source identifies who generated the copy: a site index, or
	// RepoSource for the repository's authoritative copy.
	Source int
	// Seed is the workload seed the content was derived from.
	Seed uint64
	// Length is the total payload length, header included.
	Length int64
	// Sum is the CRC-32 (IEEE) of the body (everything after the header).
	Sum uint32
}

// EncodePayloadHeader renders the header as its fixed-width PayloadHeaderLen-byte line.
func EncodePayloadHeader(h PayloadHeader) []byte {
	var buf [PayloadHeaderLen]byte
	encodeHeader(&buf, h)
	return buf[:]
}

// encodeHeader writes the line "REPL1 obj=%d src=%d seed=%016x len=%d
// sum=%08x" into buf, space-padded, cut at PayloadHeaderLen-1 bytes and
// newline-terminated.
func encodeHeader(buf *[PayloadHeaderLen]byte, h PayloadHeader) {
	// The widest line (three 20-character decimals) is 115 bytes.
	var lineBuf [128]byte
	line := append(lineBuf[:0], "REPL1 obj="...)
	line = strconv.AppendInt(line, int64(h.Object), 10)
	line = append(line, " src="...)
	line = strconv.AppendInt(line, int64(h.Source), 10)
	line = append(line, " seed="...)
	line = appendHex(line, h.Seed, 16)
	line = append(line, " len="...)
	line = strconv.AppendInt(line, h.Length, 10)
	line = append(line, " sum="...)
	line = appendHex(line, uint64(h.Sum), 8)
	n := copy(buf[:], line)
	for i := n; i < PayloadHeaderLen; i++ {
		buf[i] = ' '
	}
	buf[PayloadHeaderLen-1] = '\n'
}

// appendHex appends v in lower-case hex, zero-padded to width digits.
func appendHex(dst []byte, v uint64, width int) []byte {
	var digits [16]byte
	hex := strconv.AppendUint(digits[:0], v, 16)
	for i := len(hex); i < width; i++ {
		dst = append(dst, '0')
	}
	return append(dst, hex...)
}

// DecodePayloadHeader parses a payload's leading header line. It never
// panics on arbitrary input; malformed headers return an *IntegrityError.
func DecodePayloadHeader(data []byte) (PayloadHeader, error) {
	var h PayloadHeader
	if len(data) < PayloadHeaderLen {
		return h, &IntegrityError{Reason: fmt.Sprintf("payload too short for header (%d bytes)", len(data))}
	}
	if data[PayloadHeaderLen-1] != '\n' {
		return h, &IntegrityError{Reason: "payload header not newline-terminated"}
	}
	line := bytes.TrimRight(data[:PayloadHeaderLen-1], " ")
	sc := headerScanner(line)
	var obj int
	ok := sc.header(&h, &obj)
	if !ok {
		return h, &IntegrityError{Reason: fmt.Sprintf("malformed payload header %q", line)}
	}
	if obj < 0 || h.Length < PayloadHeaderLen {
		return h, &IntegrityError{Reason: fmt.Sprintf("payload header out of range (obj=%d len=%d)", obj, h.Length)}
	}
	// The fixed width must round-trip: a header whose re-encoding differs
	// (sign tricks, leading zeros, trailing garbage) is not canonical.
	h.Object = workload.ObjectID(obj)
	var enc [PayloadHeaderLen]byte
	encodeHeader(&enc, h)
	if !bytes.Equal(enc[:], data[:PayloadHeaderLen]) {
		return h, &IntegrityError{Object: h.Object, Reason: "non-canonical payload header"}
	}
	return h, nil
}

// headerScanner is the unread rest of a header line. It parses the line
// in place by the rules fmt.Sscanf applies to the format
// "REPL1 obj=%d src=%d seed=%x len=%d sum=%x" — the decoder's original
// parser — so it accepts and rejects the same lines and sets the same
// fields before a failure: a format space needs one or more input spaces
// other than newline; each operand skips leading spaces (a newline there
// fails), takes an optional sign when signed, then one or more digits,
// greedily, and fails when the value overflows its type. Text after the
// last operand is left to the canonical re-encode check.
type headerScanner []byte

// header reads the five operands into obj and h in order, stopping at the
// first failure; the operands read before it stay set.
func (sc *headerScanner) header(h *PayloadHeader, obj *int) bool {
	if !sc.literal("REPL1") || !sc.field("obj=") {
		return false
	}
	v, ok := sc.signed()
	if !ok {
		return false
	}
	*obj = int(v)
	if !sc.field("src=") {
		return false
	}
	if v, ok = sc.signed(); !ok {
		return false
	}
	h.Source = int(v)
	if !sc.field("seed=") {
		return false
	}
	u, ok := sc.unsigned(64)
	if !ok {
		return false
	}
	h.Seed = u
	if !sc.field("len=") {
		return false
	}
	if v, ok = sc.signed(); !ok {
		return false
	}
	h.Length = v
	if !sc.field("sum=") {
		return false
	}
	if u, ok = sc.unsigned(32); !ok {
		return false
	}
	h.Sum = uint32(u)
	return true
}

// literal consumes s exactly.
func (sc *headerScanner) literal(s string) bool {
	if len(*sc) < len(s) || string((*sc)[:len(s)]) != s {
		return false
	}
	*sc = (*sc)[len(s):]
	return true
}

// field consumes a format space and then an operand's label.
func (sc *headerScanner) field(label string) bool {
	return sc.skipSpaces() > 0 && sc.literal(label)
}

// skipSpaces consumes spaces up to the first non-space or newline and
// returns how many bytes it consumed.
func (sc *headerScanner) skipSpaces() int {
	n := 0
	for n < len(*sc) {
		r, size := utf8.DecodeRune((*sc)[n:])
		if r == '\n' || !unicode.IsSpace(r) {
			break
		}
		n += size
	}
	*sc = (*sc)[n:]
	return n
}

// digits reads an operand: spaces, an optional sign when signed, then
// digits in base, accumulating the magnitude. ok is false when no digit
// follows or the magnitude overflows 64 bits.
func (sc *headerScanner) digits(base uint64, signed bool) (mag uint64, neg, ok bool) {
	sc.skipSpaces()
	b := *sc
	if signed && len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		b = b[1:]
	}
	n := 0
	for ; n < len(b); n++ {
		d := uint64(hexVal(b[n]))
		if d >= base {
			break
		}
		if mag > (math.MaxUint64-d)/base {
			return 0, false, false
		}
		mag = mag*base + d
	}
	*sc = b[n:]
	return mag, neg, n > 0
}

// signed reads a decimal operand into a 64-bit signed value.
func (sc *headerScanner) signed() (int64, bool) {
	mag, neg, ok := sc.digits(10, true)
	switch {
	case !ok:
		return 0, false
	case neg && mag <= 1<<63:
		return int64(-mag), true
	case !neg && mag <= math.MaxInt64:
		return int64(mag), true
	}
	return 0, false
}

// unsigned reads a hex operand into an unsigned value of the given width.
func (sc *headerScanner) unsigned(bits int) (uint64, bool) {
	mag, _, ok := sc.digits(16, false)
	if !ok || mag>>(bits-1)>>1 != 0 {
		return 0, false
	}
	return mag, true
}

// hexVal returns the value of a hex digit, or 16 for any other byte.
func hexVal(c byte) byte {
	switch {
	case '0' <= c && c <= '9':
		return c - '0'
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10
	}
	return 16
}

// IntegrityError reports a payload that fails end-to-end verification —
// wrong object, wrong seed, truncated, or bit-flipped. The client's
// failureReason classifies it as "corrupt", making verification failures
// retryable (and fallback-able) like any transient fault.
type IntegrityError struct {
	Object workload.ObjectID
	Reason string
}

func (e *IntegrityError) Error() string {
	return fmt.Sprintf("webserve: object %d integrity: %s", e.Object, e.Reason)
}

// payloadBlock fills block with the deterministic body block for (seed,
// k, src): a SplitMix-derived keystream, so two sources' copies of the same
// object are distinguishable bytes with identical sizes.
func payloadBlock(block *[contentBlockSize]byte, seed uint64, k workload.ObjectID, src int) {
	s := rng.New(rng.SplitSeed(seed, payloadContentStream, uint64(k), uint64(src+1)))
	for i := 0; i < contentBlockSize; i += 8 {
		binary.LittleEndian.PutUint64(block[i:], s.Uint64())
	}
}

// bodyCRC returns the CRC-32 (IEEE) of block repeated and truncated to n
// bytes without reading those n bytes: the CRC of block repeated q times is
// built by doubling, then the CRC of the r-byte tail is appended
// (n = q·len(block) + r). It costs O(log n) and keeps no state.
func bodyCRC(block []byte, n int64) uint32 {
	if len(block) == 0 {
		return 0
	}
	q, r := n/int64(len(block)), n%int64(len(block))
	var sum uint32 // CRC of the copies appended so far
	// run is the CRC of block repeated 2^i times; shift is the operator
	// x^(8·len(run)) mod P that appending len(run) bytes applies to a CRC.
	run, shift := crc32.ChecksumIEEE(block), x2nmodp(int64(len(block)), 3)
	for ; q > 0; q >>= 1 {
		if q&1 != 0 {
			sum = multmodp(shift, sum) ^ run
		}
		run = multmodp(shift, run) ^ run
		shift = multmodp(shift, shift)
	}
	if r > 0 {
		sum = multmodp(x2nmodp(r, 3), sum) ^ crc32.ChecksumIEEE(block[:r])
	}
	return sum
}

// CRC-32 combination over GF(2), after zlib's crc32_combine: a CRC is a
// polynomial remainder, so crc(A‖B) = crc(A)·x^(8·len(B)) mod P ⊕ crc(B),
// with P the reflected IEEE polynomial.
const crcPoly = 0xedb88320

// x2nTable[k] is x^(2^k) mod P, k = 0..31.
var x2nTable = func() (t [32]uint32) {
	p := uint32(1) << 30 // x^1
	t[0] = p
	for k := 1; k < len(t); k++ {
		p = multmodp(p, p)
		t[k] = p
	}
	return t
}()

// multmodp returns a·b mod P in the reflected bit order, where the top bit
// stands for x^0.
func multmodp(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
			if a&(m-1) == 0 {
				break
			}
		}
		if b&1 != 0 {
			b = b>>1 ^ crcPoly
		} else {
			b >>= 1
		}
	}
	return p
}

// x2nmodp returns x^(n·2^k) mod P.
func x2nmodp(n int64, k uint) uint32 {
	p := uint32(1) << 31 // x^0
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			p = multmodp(x2nTable[k&31], p)
		}
		k++
	}
	return p
}

// ObjectReader streams the self-verifying content of object k as served by
// src (a site index, or RepoSource for the repository) at its workload
// size: the fixed-width header, then the (seed, object, source)-keyed body.
// The reader is cheap: one block repeated, truncated at the end, behind a
// header whose checksum is combined from the block's, not streamed.
//
//repllint:hotpath — opened for every object a server sends
func ObjectReader(w *workload.Workload, src int, k workload.ObjectID) io.Reader {
	r := &payloadReader{total: int64(w.ObjectSize(k))}
	payloadBlock(&r.block, w.Seed, k, src)
	bodyLen := max(r.total-PayloadHeaderLen, 0)
	encodeHeader(&r.head, PayloadHeader{
		Object: k,
		Source: src,
		Seed:   w.Seed,
		Length: r.total,
		Sum:    bodyCRC(r.block[:], bodyLen),
	})
	return r
}

// payloadReader reads one payload: the header (cut short when the object
// is smaller than a header), then the block repeated out to total bytes.
type payloadReader struct {
	head  [PayloadHeaderLen]byte
	block [contentBlockSize]byte
	pos   int64 // bytes read so far
	total int64
}

func (r *payloadReader) Read(p []byte) (int, error) {
	if r.pos >= r.total {
		return 0, io.EOF
	}
	n := 0
	if r.pos < PayloadHeaderLen {
		n = copy(p, r.head[r.pos:min(r.total, PayloadHeaderLen)])
		r.pos += int64(n)
	}
	for n < len(p) && r.pos < r.total {
		chunk := r.block[(r.pos-PayloadHeaderLen)%contentBlockSize:]
		if rest := r.total - r.pos; int64(len(chunk)) > rest {
			chunk = chunk[:rest]
		}
		c := copy(p[n:], chunk)
		n += c
		r.pos += int64(c)
	}
	return n, nil
}

// VerifyObject checks that data is a genuine copy of object k from *some*
// valid source: size, header coordinates, checksum and every body byte. All
// failures are *IntegrityError.
func VerifyObject(w *workload.Workload, k workload.ObjectID, data []byte) error {
	_, err := verifyPayload(w, k, data)
	return err
}

// VerifyObjectFrom is VerifyObject plus a provenance check: the payload
// must declare exactly the expected source, so a replica scrub proves the
// bytes at site src really are site src's copy — not a proxied or stale
// payload that merely checksums.
func VerifyObjectFrom(w *workload.Workload, src int, k workload.ObjectID, data []byte) error {
	h, err := verifyPayload(w, k, data)
	if err != nil {
		return err
	}
	if h.Source != src {
		return &IntegrityError{Object: k, Reason: fmt.Sprintf("payload claims source %d, want %d", h.Source, src)}
	}
	return nil
}

// verifyPayload is the shared verification core. The checks run in a fixed
// order — size, header, object, seed, declared length, source, a CRC over
// the received body, then the keystream — so a damaged payload always
// reports the first check it fails.
//
//repllint:hotpath — runs on every object a verifying client or the scrubber fetches
func verifyPayload(w *workload.Workload, k workload.ObjectID, data []byte) (PayloadHeader, error) {
	var h PayloadHeader
	if got, want := units.ByteSize(len(data)), w.ObjectSize(k); got != want {
		return h, &IntegrityError{Object: k, Reason: fmt.Sprintf("%d bytes, want %d", got, want)}
	}
	h, err := DecodePayloadHeader(data)
	if err != nil {
		return h, err
	}
	switch {
	case h.Object != k:
		return h, &IntegrityError{Object: k, Reason: fmt.Sprintf("payload claims object %d", h.Object)}
	case h.Seed != w.Seed:
		return h, &IntegrityError{Object: k, Reason: fmt.Sprintf("payload seed %x, want %x", h.Seed, w.Seed)}
	case h.Length != int64(len(data)):
		return h, &IntegrityError{Object: k, Reason: fmt.Sprintf("payload declares %d bytes, body has %d", h.Length, len(data))}
	case h.Source != RepoSource && (h.Source < 0 || h.Source >= w.NumSites()):
		return h, &IntegrityError{Object: k, Reason: fmt.Sprintf("payload claims unknown source %d", h.Source)}
	}
	body := data[PayloadHeaderLen:]
	if crc32.ChecksumIEEE(body) != h.Sum {
		return h, &IntegrityError{Object: k, Reason: "body checksum mismatch"}
	}
	// The checksum catches bit-flips; the keystream compare additionally
	// catches a forged (sum, body) pair. Segments are compared a block at a
	// time and scanned byte by byte only to name the first differing byte.
	var block [contentBlockSize]byte
	payloadBlock(&block, w.Seed, k, h.Source)
	for i := 0; i < len(body); i += contentBlockSize {
		seg := body[i:min(i+contentBlockSize, len(body))]
		if bytes.Equal(seg, block[:len(seg)]) {
			continue
		}
		for off := range seg {
			if seg[off] != block[off] {
				return h, &IntegrityError{Object: k, Reason: fmt.Sprintf("body corrupt at byte %d", i+off+PayloadHeaderLen)}
			}
		}
	}
	return h, nil
}
