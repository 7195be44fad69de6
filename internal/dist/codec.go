package dist

import (
	"fmt"
	"strconv"
	"strings"

	"lbtrust/internal/datalog"
)

// The wire format shared by every transport: a text header line naming the
// route, then one line per tuple in the canonical surface syntax of
// internal/datalog/canon.go. Canonical syntax is deterministic (variables
// inside quoted code are renamed V0, V1, ... and strings are
// strconv-quoted, so no raw newlines occur), which makes the encoding both
// line-safe and byte-stable across nodes: the bytes MemNetwork counts are
// exactly the bytes TCPNetwork writes to the socket.
//
//	lbtrust/1 <from> <to> <sender> <principal> <pred> <count> [k=v ...]
//	t(<v1>,<v2>,...)
//	...
//
// Fields after the tuple count are optional key=value extensions; a
// decoder ignores keys it does not recognize, so new fields are
// backward compatible without a magic bump. The only extension today is
// trace=<id>, carrying the request trace ID of an instrumented Sync
// (see internal/obs). Envelopes without a trace omit the field
// entirely, keeping untraced runs byte-identical to the original
// format.
//
// A tuple line is decoded by datalog.DecodeCanonicalTuple, a single-pass
// scanner for exactly the grammar the encoder writes:
//
//	line   := 't(' [value {',' value}] ')'
//	value  := symbol | int | string | code | part
//	symbol := a non-variable identifier, ':' continuations included
//	          (rsa:3:c1ebab5d, lb:entity:s:3)
//	int    := '-'? digits
//	string := a strconv-quoted string
//	code   := '[|' canonical clause text '|]'
//	part   := symbol '[' value ']'
//
// Only a code value reaches the Datalog parser, to rebuild its rule. The
// bytes on the wire are those the parser-based decoder read, so old and
// new peers interoperate. The scanner is deliberately narrower than that
// decoder was. It rejects whitespace, comments, arithmetic, parenthesized
// terms and a functor other than t, none of which an encoder writes. It
// also rejects quoted code whose decoded Code does not render back to the
// quoted text: non-canonical spacing, and ground arithmetic such as
// p((1+2)), which the parser silently folded into a different Code
// (p(3)). On every line it accepts, it decodes the tuple the parser did;
// FuzzDecodeTupleMatchesParser checks this against the old decoder.

// wireMagic versions the envelope encoding.
const wireMagic = "lbtrust/1"

// tuplePred is the dummy functor of a tuple line; the real destination
// predicate travels in the header.
const tuplePred = "t"

// EncodeEnvelope renders an envelope into its wire form, appending the
// header and every tuple line into one buffer.
func EncodeEnvelope(env *Envelope) []byte {
	b := make([]byte, 0, 64+64*len(env.Tuples))
	b = append(b, wireMagic...)
	for _, f := range []string{env.From, env.To, env.Sender, env.Principal, env.Pred} {
		b = append(b, ' ')
		b = append(b, f...)
	}
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(env.Tuples)), 10)
	if env.Trace != "" {
		b = append(b, " trace="...)
		b = append(b, env.Trace...)
	}
	b = append(b, '\n')
	for _, t := range env.Tuples {
		b = AppendTuple(b, t)
		b = append(b, '\n')
	}
	return b
}

// DecodeEnvelope parses a wire-form envelope back into tuples.
func DecodeEnvelope(data []byte) (*Envelope, error) {
	s := string(data)
	line, _, _ := strings.Cut(s, "\n")
	header := strings.Fields(line)
	if len(header) < 7 || header[0] != wireMagic {
		return nil, fmt.Errorf("dist: malformed envelope header %q", line)
	}
	count, err := strconv.Atoi(header[6])
	if err != nil || count < 0 {
		return nil, fmt.Errorf("dist: bad tuple count %q", header[6])
	}
	trace := ""
	for _, f := range header[7:] {
		// Extensions are key=value pairs; unknown keys are skipped so old
		// decoders of this version stay compatible with newer senders.
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf("dist: malformed envelope extension %q", f)
		}
		if k == "trace" {
			trace = v
		}
	}
	tuples, err := DecodeTuples(s, count)
	if err != nil {
		return nil, fmt.Errorf("dist: envelope %w", err)
	}
	return &Envelope{
		From:      header[1],
		To:        header[2],
		Sender:    header[3],
		Principal: header[4],
		Pred:      header[5],
		Trace:     trace,
		Tuples:    tuples,
	}, nil
}

// DecodeTuples decodes the n tuple lines that follow the header line of
// s. Lines after the n-th are ignored. The line count is checked before
// anything is allocated, so a huge declared count costs nothing.
func DecodeTuples(s string, n int) ([]datalog.Tuple, error) {
	if lines := strings.Count(s, "\n"); lines < n {
		return nil, fmt.Errorf("truncated: %d tuples declared, %d lines", n, lines)
	}
	_, s, _ = strings.Cut(s, "\n")
	out := make([]datalog.Tuple, 0, n)
	for i := 0; i < n; i++ {
		var line string
		line, s, _ = strings.Cut(s, "\n")
		t, err := DecodeTuple(line)
		if err != nil {
			return nil, fmt.Errorf("tuple %d: %w", i, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// EncodeTuple renders one tuple in canonical syntax.
func EncodeTuple(t datalog.Tuple) string { return string(AppendTuple(nil, t)) }

// AppendTuple appends one tuple's canonical wire line, without the
// newline, to dst.
func AppendTuple(dst []byte, t datalog.Tuple) []byte {
	return datalog.AppendCanonicalTuple(dst, tuplePred, t)
}

// DecodeTuple decodes one canonical tuple line. Code arguments re-enter
// as freshly canonicalized Code values, so the decoded tuple compares
// equal (and verifies signatures) exactly as the original.
func DecodeTuple(line string) (datalog.Tuple, error) {
	return datalog.DecodeCanonicalTuple(line, tuplePred)
}
