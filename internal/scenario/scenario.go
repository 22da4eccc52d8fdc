// Package scenario implements the versioned JSON scenario DSL: a pure
// parser/validator for documents that compose a workload (named, or a
// tiled kernel described by its parameters) with a scale, thread counts
// and an optional sequence of phases — so users can describe complete
// experiments without writing Go.
//
// A scenario is declarative and content-addressed: Digest is a stable
// hash of the parsed document, which is how the daemon stores scenarios
// (POST /v1/scenarios) and how clients reference them from runs and
// sweeps. Crucially, a scenario introduces no new cache-key schema:
// Resolve lowers it to ordinary (workload, scale, threads) phases, and
// everything a scenario contributes to a simulation — the workload name
// (tile shape and dataflow order included) — is already folded into
// explore.CellKey. Running a scenario
// therefore produces exactly the cells a direct Go invocation would, so
// caching and journaling work unchanged.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"wavescalar/internal/cli"
	"wavescalar/internal/workload"
)

// Version is the only scenario schema this build understands. The version
// field is mandatory: a document without it (or with any other value) is
// rejected, so schema evolution is always explicit on the wire.
const Version = "v1"

// ErrBadScenario wraps every parse and validation failure.
var ErrBadScenario = errors.New("scenario: bad scenario")

// WorkloadSpec names a workload either directly (Name, including dynamic
// tiled names like "gemm-os-8x8x8") or structurally by tiled-kernel
// parameters (GEMM or Conv). Exactly one field must be set.
type WorkloadSpec struct {
	Name string    `json:"name,omitempty"`
	GEMM *GEMMSpec `json:"gemm,omitempty"`
	Conv *ConvSpec `json:"conv,omitempty"`
}

// GEMMSpec is the structural form of a tiled GEMM kernel.
type GEMMSpec struct {
	Order string `json:"order"`
	Tm    int    `json:"tm"`
	Tn    int    `json:"tn"`
	Tk    int    `json:"tk"`
}

// ConvSpec is the structural form of a tiled conv kernel.
type ConvSpec struct {
	Order string `json:"order"`
	Tx    int    `json:"tx"`
	Ty    int    `json:"ty"`
	Tc    int    `json:"tc"`
}

// Resolve maps the spec onto a runnable workload.
func (ws *WorkloadSpec) Resolve() (workload.Workload, error) {
	if ws == nil {
		return workload.Workload{}, fmt.Errorf("%w: missing workload", ErrBadScenario)
	}
	set := 0
	for _, present := range []bool{ws.Name != "", ws.GEMM != nil, ws.Conv != nil} {
		if present {
			set++
		}
	}
	if set != 1 {
		return workload.Workload{}, fmt.Errorf("%w: workload needs exactly one of name, gemm, conv (%d set)", ErrBadScenario, set)
	}
	var (
		w   workload.Workload
		err error
	)
	switch {
	case ws.Name != "":
		w, err = workload.ByName(ws.Name)
	case ws.GEMM != nil:
		w, err = workload.GEMMParams{Order: ws.GEMM.Order, Tm: ws.GEMM.Tm, Tn: ws.GEMM.Tn, Tk: ws.GEMM.Tk}.Workload()
	default:
		w, err = workload.ConvParams{Order: ws.Conv.Order, Tx: ws.Conv.Tx, Ty: ws.Conv.Ty, Tc: ws.Conv.Tc}.Workload()
	}
	if err != nil {
		return workload.Workload{}, fmt.Errorf("%w: %v", ErrBadScenario, err)
	}
	return w, nil
}

// Phase is one step of a scenario. Unset fields inherit the scenario's
// top-level workload, scale and threads.
type Phase struct {
	Name     string        `json:"name,omitempty"`
	Workload *WorkloadSpec `json:"workload,omitempty"`
	Scale    string        `json:"scale,omitempty"`
	Threads  []int         `json:"threads,omitempty"`
}

// Scenario is one parsed DSL document.
type Scenario struct {
	// Version is the schema tag; the JSON field is "scenario" so documents
	// self-identify: {"scenario": "v1", ...}.
	Version  string        `json:"scenario"`
	Name     string        `json:"name,omitempty"`
	Workload *WorkloadSpec `json:"workload,omitempty"`
	Scale    string        `json:"scale,omitempty"`   // tiny (default), small, medium
	Threads  []int         `json:"threads,omitempty"` // thread counts searched per phase; default {1}
	Phases   []Phase       `json:"phases,omitempty"`  // default: the scenario itself is one phase
}

// Parse decodes and validates one scenario document. Unknown fields,
// trailing data, a missing or foreign version tag, and any unresolvable
// workload or malformed scale/threads all fail here — a stored scenario
// is guaranteed resolvable.
func Parse(data []byte) (*Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadScenario, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after scenario object", ErrBadScenario)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the scenario structurally: version, workload
// resolvability (per phase, after inheritance), scales, and thread
// counts. The scenario itself is machine-independent.
func (s *Scenario) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("%w: scenario version %q (this build speaks %q)", ErrBadScenario, s.Version, Version)
	}
	if _, err := s.ResolvePhases(); err != nil {
		return err
	}
	return nil
}

// ResolvedPhase is one phase lowered to runnable terms.
type ResolvedPhase struct {
	Name      string
	Workload  workload.Workload
	Scale     workload.Scale
	ScaleName string
	Threads   []int
}

// ResolvePhases lowers the scenario to its phase sequence, applying
// inheritance (phase fields default to the scenario's) and defaults
// (scale tiny, threads {1}). A scenario without explicit phases is a
// single phase.
func (s *Scenario) ResolvePhases() ([]ResolvedPhase, error) {
	phases := s.Phases
	if len(phases) == 0 {
		phases = []Phase{{Name: s.Name}}
	}
	out := make([]ResolvedPhase, len(phases))
	for i, ph := range phases {
		name := ph.Name
		if name == "" {
			name = fmt.Sprintf("phase-%d", i+1)
		}
		ws := ph.Workload
		if ws == nil {
			ws = s.Workload
		}
		w, err := ws.Resolve()
		if err != nil {
			return nil, fmt.Errorf("%w (phase %q)", err, name)
		}
		scaleName := ph.Scale
		if scaleName == "" {
			scaleName = s.Scale
		}
		if scaleName == "" {
			scaleName = "tiny"
		}
		sc, err := cli.ParseScale(scaleName)
		if err != nil {
			return nil, fmt.Errorf("%w: phase %q: %v", ErrBadScenario, name, err)
		}
		threads := ph.Threads
		if len(threads) == 0 {
			threads = s.Threads
		}
		if len(threads) == 0 {
			threads = []int{1}
		}
		for _, n := range threads {
			if n < 1 {
				return nil, fmt.Errorf("%w: phase %q: thread count %d must be positive", ErrBadScenario, name, n)
			}
		}
		out[i] = ResolvedPhase{
			Name: name, Workload: w, Scale: sc, ScaleName: scaleName,
			Threads: append([]int(nil), threads...),
		}
	}
	return out, nil
}

// Digest returns the stable content address of the scenario: the SHA-256
// of its canonical encoding (the parsed struct re-marshalled, so
// whitespace and key order in the source document do not matter).
func (s *Scenario) Digest() string {
	b, err := json.Marshal(s)
	if err != nil {
		// Scenario holds only plain data; Marshal cannot fail.
		panic(fmt.Sprintf("scenario: digest marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
