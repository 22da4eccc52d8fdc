package validate

import (
	"bytes"
	"compress/flate"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Repro tokens are the one-line currency of the harness: every failure
// prints one, and `wsvalidate -repro <token>` replays it. Two forms:
//
//	s:<seed>  — regenerate the case from its generator seed
//	c:<blob>  — a full case, flate-compressed canonical JSON in
//	            unpadded base64url (shrunk cases are no longer any
//	            seed's output, so they ship whole)
//
// Both encodings are deterministic, so a report containing tokens is
// byte-identical across runs of the same seed tree.

// SeedToken encodes a generator seed.
func SeedToken(seed uint64) string {
	return "s:" + strconv.FormatUint(seed, 10)
}

// CaseToken encodes a full case.
func CaseToken(c Case) string {
	doc, err := json.Marshal(c)
	if err != nil {
		// Case holds only plain data; Marshal cannot fail.
		panic(fmt.Sprintf("validate: case marshal: %v", err))
	}
	var buf bytes.Buffer
	zw, _ := flate.NewWriter(&buf, flate.BestCompression)
	zw.Write(doc)
	zw.Close()
	return "c:" + base64.RawURLEncoding.EncodeToString(buf.Bytes())
}

// ParseToken decodes a repro token back into its case.
func ParseToken(token string) (Case, error) {
	kind, rest, ok := strings.Cut(token, ":")
	if !ok {
		return Case{}, fmt.Errorf("validate: token %q has no kind prefix (want s:<seed> or c:<blob>)", token)
	}
	switch kind {
	case "s":
		seed, err := strconv.ParseUint(rest, 10, 64)
		if err != nil {
			return Case{}, fmt.Errorf("validate: seed token %q: %v", token, err)
		}
		return GenerateCase(seed), nil
	case "c":
		raw, err := base64.RawURLEncoding.DecodeString(rest)
		if err != nil {
			return Case{}, fmt.Errorf("validate: case token: %v", err)
		}
		doc, err := io.ReadAll(flate.NewReader(bytes.NewReader(raw)))
		if err != nil {
			return Case{}, fmt.Errorf("validate: case token: %v", err)
		}
		// Strict, so a token naming a field this build lacks (the fault
		// script older revisions drew) is refused, not replayed as another
		// case.
		var c Case
		dec := json.NewDecoder(bytes.NewReader(doc))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&c); err != nil {
			return Case{}, fmt.Errorf("validate: case token: %v", err)
		}
		return c, nil
	}
	return Case{}, fmt.Errorf("validate: unknown token kind %q (want s or c)", kind)
}
