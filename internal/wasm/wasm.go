// Package wasm implements a textual WaveScalar assembly format with an
// assembler and disassembler, the stand-in for the paper's tool-chain
// stage that turned binary-translated Alpha code into WaveScalar
// executables.
//
// Format (one instruction per line):
//
//	.program <name>
//	.param <name> -> <inst>.<port> ...
//	<id>: <op> ["label"] [#<imm>] [<pred,seq,succ>] [-> <inst>.<port> ...] [=> <inst>.<port> ...]
//
// '->' lists ordinary destinations, '=>' the true-side destinations of a
// steer. Memory annotations use '.' for none and '?' for wildcards, e.g.
// <.,0,?>. Immediates are decimal or 0x-hexadecimal and only opcodes that
// take one accept one. A label is a non-empty Go string literal, read back
// exactly as Disassemble quotes it. ';' outside a label starts a comment.
package wasm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"wavescalar/internal/isa"
)

// Disassemble renders a program as assembly text.
func Disassemble(p *isa.Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, ".program %s\n", p.Name)
	params := append([]isa.Param(nil), p.Params...)
	sort.Slice(params, func(i, j int) bool { return params[i].Name < params[j].Name })
	for _, pr := range params {
		fmt.Fprintf(&b, ".param %s ->%s\n", pr.Name, targets(pr.Targets))
	}
	for i := range p.Insts {
		in := &p.Insts[i]
		fmt.Fprintf(&b, "%d: %s", in.ID, in.Op)
		if in.Name != "" && in.Name != in.Op.String() {
			fmt.Fprintf(&b, " %q", in.Name)
		}
		if in.Op.HasImmediate() {
			fmt.Fprintf(&b, " #%d", in.Imm)
		}
		if in.Mem != nil {
			fmt.Fprintf(&b, " %s", in.Mem)
		}
		if len(in.Dests) > 0 {
			fmt.Fprintf(&b, " ->%s", targets(in.Dests))
		}
		if len(in.DestsT) > 0 {
			fmt.Fprintf(&b, " =>%s", targets(in.DestsT))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func targets(ts []isa.Target) string {
	var b strings.Builder
	for _, t := range ts {
		fmt.Fprintf(&b, " %d.%d", t.Inst, t.Port)
	}
	return b.String()
}

// SyntaxError reports an assembly parse failure with its line number.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("wasm: line %d: %s", e.Line, e.Msg)
}

// Assemble parses assembly text into a program and validates it.
func Assemble(src string) (*isa.Program, error) {
	p := &isa.Program{Halt: isa.NoInst}
	type pending struct {
		line int
		in   isa.Instruction
	}
	var insts []pending

	for lineNo, raw := range strings.Split(src, "\n") {
		n := lineNo + 1
		line := strings.TrimSpace(stripComment(raw))
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, ".program"):
			p.Name = strings.TrimSpace(strings.TrimPrefix(line, ".program"))
		case strings.HasPrefix(line, ".param"):
			rest := strings.TrimSpace(strings.TrimPrefix(line, ".param"))
			name, tail, _ := strings.Cut(rest, "->")
			name = strings.TrimSpace(name)
			if name == "" {
				return nil, &SyntaxError{n, "parameter needs a name"}
			}
			ts, err := parseTargets(tail)
			if err != nil {
				return nil, &SyntaxError{n, err.Error()}
			}
			p.Params = append(p.Params, isa.Param{Name: name, Targets: ts})
		default:
			in, err := parseInst(line)
			if err != nil {
				return nil, &SyntaxError{n, err.Error()}
			}
			insts = append(insts, pending{line: n, in: in})
		}
	}

	sort.SliceStable(insts, func(i, j int) bool { return insts[i].in.ID < insts[j].in.ID })
	for i, pi := range insts {
		if pi.in.ID != isa.InstID(i) {
			return nil, &SyntaxError{pi.line, fmt.Sprintf(
				"instruction ids must be dense from 0: got %d at position %d", pi.in.ID, i)}
		}
		p.Insts = append(p.Insts, pi.in)
		if pi.in.Op == isa.OpHalt {
			p.Halt = pi.in.ID
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// parseInst parses "<id>: <op> [...]" into an instruction.
func parseInst(line string) (isa.Instruction, error) {
	var in isa.Instruction
	idStr, rest, ok := strings.Cut(line, ":")
	if !ok {
		return in, fmt.Errorf("missing ':' after instruction id")
	}
	id, err := strconv.Atoi(strings.TrimSpace(idStr))
	if err != nil {
		return in, fmt.Errorf("bad instruction id %q", idStr)
	}
	in.ID = isa.InstID(id)

	toks, err := tokenize(rest)
	if err != nil {
		return in, err
	}
	if len(toks) == 0 {
		return in, fmt.Errorf("missing opcode")
	}
	op, ok := isa.OpcodeByName(toks[0])
	if !ok {
		return in, fmt.Errorf("unknown opcode %q", toks[0])
	}
	in.Op = op
	in.Name = op.String()
	toks = toks[1:]

	mode := 0 // 0: attributes, 1: dests, 2: destsT
	for _, tk := range toks {
		switch {
		case tk == "->":
			mode = 1
		case tk == "=>":
			mode = 2
		case mode == 0 && strings.HasPrefix(tk, "#"):
			if !op.HasImmediate() {
				return in, fmt.Errorf("%s takes no immediate", op)
			}
			v, err := parseUint(tk[1:])
			if err != nil {
				return in, fmt.Errorf("bad immediate %q", tk)
			}
			in.Imm = v
		case mode == 0 && strings.HasPrefix(tk, `"`):
			label, err := strconv.Unquote(tk)
			if err != nil || label == "" {
				return in, fmt.Errorf("bad label %s", tk)
			}
			in.Name = label
		case mode == 0 && strings.HasPrefix(tk, "<"):
			m, err := parseMem(tk)
			if err != nil {
				return in, err
			}
			in.Mem = &m
		case mode >= 1:
			t, err := parseTarget(tk)
			if err != nil {
				return in, err
			}
			if mode == 1 {
				in.Dests = append(in.Dests, t)
			} else {
				in.DestsT = append(in.DestsT, t)
			}
		default:
			return in, fmt.Errorf("unexpected token %q", tk)
		}
	}
	if in.Op.IsMemory() && in.Mem == nil {
		return in, fmt.Errorf("%s needs a <pred,seq,succ> annotation", in.Op)
	}
	if !in.Op.IsMemory() && in.Mem != nil {
		return in, fmt.Errorf("%s cannot carry a memory annotation", in.Op)
	}
	return in, nil
}

// stripComment cuts line at its first ';' outside a quoted label.
func stripComment(line string) string {
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case ';':
			return line[:i]
		case '"':
			if q, err := strconv.QuotedPrefix(line[i:]); err == nil {
				i += len(q) - 1
			}
		}
	}
	return line
}

// tokenize splits on spaces but keeps quoted labels together.
func tokenize(s string) ([]string, error) {
	var toks []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] == '"' {
			q, err := strconv.QuotedPrefix(s)
			if err != nil {
				return nil, fmt.Errorf("unterminated or malformed label")
			}
			toks = append(toks, q)
			s = strings.TrimSpace(s[len(q):])
			continue
		}
		var tk string
		if i := strings.IndexByte(s, ' '); i >= 0 {
			tk, s = s[:i], strings.TrimSpace(s[i+1:])
		} else {
			tk, s = s, ""
		}
		toks = append(toks, tk)
	}
	return toks, nil
}

func parseUint(s string) (uint64, error) {
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		return strconv.ParseUint(s[2:], 16, 64)
	}
	if strings.HasPrefix(s, "-") {
		v, err := strconv.ParseInt(s, 10, 64)
		return uint64(v), err
	}
	return strconv.ParseUint(s, 10, 64)
}

func parseTarget(s string) (isa.Target, error) {
	instStr, portStr, ok := strings.Cut(s, ".")
	if !ok {
		return isa.Target{}, fmt.Errorf("bad target %q (want inst.port)", s)
	}
	inst, err1 := strconv.Atoi(instStr)
	port, err2 := strconv.Atoi(portStr)
	if err1 != nil || err2 != nil || port < 0 || port > 2 {
		return isa.Target{}, fmt.Errorf("bad target %q", s)
	}
	return isa.Target{Inst: isa.InstID(inst), Port: isa.PortID(port)}, nil
}

func parseTargets(s string) ([]isa.Target, error) {
	var out []isa.Target
	for _, f := range strings.Fields(s) {
		t, err := parseTarget(f)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// parseMem parses "<pred,seq,succ>".
func parseMem(s string) (isa.MemInfo, error) {
	var m isa.MemInfo
	if !strings.HasPrefix(s, "<") || !strings.HasSuffix(s, ">") {
		return m, fmt.Errorf("bad memory annotation %q", s)
	}
	parts := strings.Split(s[1:len(s)-1], ",")
	if len(parts) != 3 {
		return m, fmt.Errorf("memory annotation %q needs three fields", s)
	}
	parse := func(f string) (int32, error) {
		switch f {
		case ".":
			return isa.SeqNone, nil
		case "?":
			return isa.SeqWild, nil
		}
		v, err := strconv.Atoi(f)
		if err != nil || v < 0 {
			return 0, fmt.Errorf("bad sequence field %q", f)
		}
		return int32(v), nil
	}
	var err error
	if m.Pred, err = parse(parts[0]); err != nil {
		return m, err
	}
	if m.Seq, err = parse(parts[1]); err != nil {
		return m, err
	}
	if m.Succ, err = parse(parts[2]); err != nil {
		return m, err
	}
	return m, nil
}
