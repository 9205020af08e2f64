// Package htmlrefs implements the page-handling machinery of the paper's
// Section 2: rendering synthetic HTML documents that embed a page's
// multimedia objects, parsing documents to extract those references ("upon
// creation or update of an HTML file ... the server parses the document and
// retrieves the URLs of multimedia content"), the per-server reference
// database that records which objects are to be downloaded locally, and the
// on-the-fly URL rewriting a local server performs while serving the HTML
// ("the local server queries the reference database and replaces on the fly
// the remote URLs with the local ones").
package htmlrefs

import (
	"bytes"
	"math"
	"strconv"
	"strings"

	"repro/internal/units"
	"repro/internal/workload"
)

// MOPathPrefix is the URL path prefix under which multimedia objects are
// served on both the repository and the local servers: /mo/<objectID>.
const MOPathPrefix = "/mo/"

// PagePathPrefix is the URL path prefix of pages on local servers:
// /page/<pageID>.
const PagePathPrefix = "/page/"

// MOPath returns the URL path of object k.
func MOPath(k workload.ObjectID) string {
	return MOPathPrefix + strconv.Itoa(int(k))
}

// PagePath returns the URL path of page j.
func PagePath(j workload.PageID) string {
	return PagePathPrefix + strconv.Itoa(int(j))
}

// ParseMOPath extracts the object ID from a /mo/<id> path; ok is false for
// anything else.
func ParseMOPath(path string) (workload.ObjectID, bool) {
	if !strings.HasPrefix(path, MOPathPrefix) {
		return 0, false
	}
	id, err := strconv.Atoi(path[len(MOPathPrefix):])
	if err != nil || id < 0 {
		return 0, false
	}
	return workload.ObjectID(id), true
}

// ParsePagePath extracts the page ID from a /page/<id> path.
func ParsePagePath(path string) (workload.PageID, bool) {
	if !strings.HasPrefix(path, PagePathPrefix) {
		return 0, false
	}
	id, err := strconv.Atoi(path[len(PagePathPrefix):])
	if err != nil || id < 0 {
		return 0, false
	}
	return workload.PageID(id), true
}

// RenderPage produces the stored form of page j's HTML document H_j: a
// valid document embedding every compulsory object as an <img> and every
// optional object as an <a href> link, with all MO URLs pointing at the
// repository (repoBase, e.g. "http://repo.example.com") — the form pages
// have *before* the serving-time rewrite. Filler prose pads the document to
// approximately the page's HTMLSize.
//
// The document is a function of j, the page's Site, its Compulsory
// objects, the objects of its Optional links, its HTMLSize and repoBase,
// nothing else: the reference database reuses a parsed document while
// exactly these inputs are unchanged (parsedPage.rendersAs), so a new input
// here must join that check.
func RenderPage(w *workload.Workload, j workload.PageID, repoBase string) []byte {
	pg := &w.Pages[j]
	var b strings.Builder
	b.Grow(int(pg.HTMLSize) + 256 + (len(pg.Compulsory)+len(pg.Optional))*(len(repoBase)+64))
	b.WriteString("<!DOCTYPE html>\n<html>\n<head><title>W")
	writeInt(&b, int(j))
	b.WriteString("</title></head>\n<body>\n<h1>Page W")
	writeInt(&b, int(j))
	b.WriteString(" (site S")
	writeInt(&b, int(pg.Site))
	b.WriteString(")</h1>\n")
	for _, k := range pg.Compulsory {
		b.WriteString("<img src=\"")
		b.WriteString(repoBase)
		b.WriteString(MOPathPrefix)
		writeInt(&b, int(k))
		b.WriteString("\" alt=\"M")
		writeInt(&b, int(k))
		b.WriteString("\">\n")
	}
	if len(pg.Optional) > 0 {
		b.WriteString("<ul>\n")
		for _, l := range pg.Optional {
			b.WriteString("<li><a href=\"")
			b.WriteString(repoBase)
			b.WriteString(MOPathPrefix)
			writeInt(&b, int(l.Object))
			b.WriteString("\">optional M")
			writeInt(&b, int(l.Object))
			b.WriteString("</a></li>\n")
		}
		b.WriteString("</ul>\n")
	}
	pad(&b, pg.HTMLSize)
	b.WriteString("</body>\n</html>\n")
	return []byte(b.String())
}

// writeInt appends n in decimal.
func writeInt(b *strings.Builder, n int) {
	var num [20]byte
	b.Write(strconv.AppendInt(num[:0], int64(n), 10))
}

// pad appends filler paragraphs until the document reaches target bytes
// (skipped when the references alone already exceed it).
func pad(b *strings.Builder, target units.ByteSize) {
	const filler = "<p>Lorem ipsum dolor sit amet, consectetur adipiscing elit, sed do eiusmod tempor incididunt ut labore et dolore magna aliqua.</p>\n"
	for units.ByteSize(b.Len()) < target-units.ByteSize(len(filler)) {
		b.WriteString(filler)
	}
}

// Ref is one multimedia reference found in a document: the object, whether
// it is an embedded (compulsory) image or an optional link, and the byte
// range [Start, End) of the URL value inside the document.
type Ref struct {
	Object   workload.ObjectID
	Optional bool
	Start    int
	End      int
}

// ParseRefs scans an HTML document for MO references. It is a small,
// purpose-built scanner (stdlib only): it walks tags, finds src/href
// attribute values whose path component matches /mo/<id>, and classifies
// <img>/<embed>/<source> as compulsory and <a> as optional. Tag and
// attribute names match ASCII case-insensitively, in place. Offsets index
// into the original byte slice so rewrites can splice in place; references
// come back in document order. The only allocation is the result slice.
//
//repllint:hotpath — runs on every page a client fetches
func ParseRefs(doc []byte) []Ref {
	var refs []Ref
	i := 0
	for i < len(doc) {
		lt := bytes.IndexByte(doc[i:], '<')
		if lt < 0 {
			break
		}
		lt += i
		gt := bytes.IndexByte(doc[lt:], '>')
		if gt < 0 {
			break
		}
		gt += lt
		tag := doc[lt+1 : gt]
		n := tagNameLen(tag)
		name := tag[:n]
		var wantAttr string
		var optional bool
		switch {
		case foldEqual(name, "img"), foldEqual(name, "embed"), foldEqual(name, "source"):
			wantAttr = "src"
		case foldEqual(name, "a"):
			wantAttr = "href"
			optional = true
		}
		if wantAttr != "" {
			if start, end, ok := findAttrValue(tag[n:], wantAttr); ok {
				absStart := lt + 1 + n + start
				absEnd := lt + 1 + n + end
				if k, ok := parseMOURL(doc[absStart:absEnd]); ok {
					refs = append(refs, Ref{Object: k, Optional: optional, Start: absStart, End: absEnd})
				}
			}
		}
		i = gt + 1
	}
	return refs
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// tagNameLen returns the length of a tag's name: everything up to the first
// whitespace, which starts the attribute section.
func tagNameLen(tag []byte) int {
	for i, c := range tag {
		if isSpace(c) {
			return i
		}
	}
	return len(tag)
}

// foldEqual reports whether b equals lower, a lower-case ASCII word, under
// ASCII case folding.
func foldEqual(b []byte, lower string) bool {
	if len(b) != len(lower) {
		return false
	}
	for i := range b {
		if b[i]|0x20 != lower[i] {
			return false
		}
	}
	return true
}

// findAttrValue locates attr="value" inside an attribute section — attr
// (lower case) matched case-insensitively and preceded by whitespace, not
// part of a longer name — and returns the value's byte range relative to
// the section start.
func findAttrValue(attrs []byte, attr string) (start, end int, ok bool) {
	n := len(attr)
	for eq := n; eq+1 < len(attrs); eq++ {
		if attrs[eq] != '=' || attrs[eq+1] != '"' || !foldEqual(attrs[eq-n:eq], attr) {
			continue
		}
		if eq > n && !isSpace(attrs[eq-n-1]) {
			continue
		}
		valStart := eq + 2
		valEnd := bytes.IndexByte(attrs[valStart:], '"')
		if valEnd < 0 {
			return 0, 0, false
		}
		return valStart, valStart + valEnd, true
	}
	return 0, 0, false
}

// parseMOURL extracts the object ID from an absolute or relative MO URL:
// anything may precede the first /mo/, and the remainder must be a
// non-negative decimal integer (an optional sign, as strconv.Atoi takes
// it).
func parseMOURL[T string | []byte](url T) (workload.ObjectID, bool) {
	for i := 0; i+len(MOPathPrefix) <= len(url); i++ {
		if string(url[i:i+len(MOPathPrefix)]) == MOPathPrefix {
			return parseID(url[i+len(MOPathPrefix):])
		}
	}
	return 0, false
}

// parseID parses a non-negative decimal int without allocating.
func parseID[T string | []byte](s T) (workload.ObjectID, bool) {
	neg := false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		s = s[1:]
	}
	if len(s) == 0 {
		return 0, false
	}
	var id uint64
	for i := 0; i < len(s); i++ {
		d := uint64(s[i] - '0')
		if d > 9 || id > (math.MaxInt-d)/10 {
			return 0, false
		}
		id = id*10 + d
	}
	if neg && id != 0 {
		return 0, false
	}
	return workload.ObjectID(id), true
}
