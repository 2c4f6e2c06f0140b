// Package toolchain reproduces the layout-perturbation pipeline of the
// paper's Camino compiler infrastructure (§5.1, §5.3): a program is
// "compiled" once into assembly units, procedures are reordered within
// each unit, units are assembled into object files, the object files are
// pseudo-randomly reordered, and the linker lays code out "in the order in
// which it is encountered on the command line" — so every seed yields a
// different but semantically identical executable.
//
// The output of linking is an Executable: the original Program plus a
// concrete address for every block, procedure and global object. Those
// addresses are the only thing that varies between layouts, and they are
// exactly what the microarchitectural models in internal/machine hash.
package toolchain

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"

	"interferometry/internal/isa"
	"interferometry/internal/obs"
	"interferometry/internal/xrand"
)

// Stream-derivation tags for the layout PRNG.
const (
	tagProcShuffle uint64 = 0x70
	tagUnitShuffle uint64 = 0x75
)

// Unit is one compilation unit (one assembly/object file): a named group
// of procedures and the global objects whose definitions live in it.
type Unit struct {
	Name    string
	Procs   []isa.ProcID
	Globals []isa.ObjectID
}

// CompileConfig controls how a program is split into units.
type CompileConfig struct {
	// ProcsPerUnit is the target number of procedures per unit; the last
	// unit may be smaller. Zero means 8.
	ProcsPerUnit int
}

// Compile partitions a program into compilation units the way a build of
// many source files would: contiguous runs of procedures per unit, with
// each global object assigned to the unit of the first procedure that
// references it (or round-robin if unreferenced). Compile is deterministic
// and performs no randomization — perturbation happens at reorder time.
func Compile(p *isa.Program, cfg CompileConfig) []Unit {
	per := cfg.ProcsPerUnit
	if per <= 0 {
		per = 8
	}
	nUnits := (len(p.Procs) + per - 1) / per
	units := make([]Unit, nUnits)
	procUnit := make([]int, len(p.Procs))
	for i := range p.Procs {
		u := i / per
		units[u].Procs = append(units[u].Procs, isa.ProcID(i))
		procUnit[i] = u
	}
	for u := range units {
		units[u].Name = fmt.Sprintf("%s_%03d.o", p.Name, u)
	}

	// Assign globals to the unit of the first referencing procedure.
	owner := make([]int, len(p.Objects))
	for i := range owner {
		owner[i] = -1
	}
	for bi := range p.Blocks {
		b := &p.Blocks[bi]
		u := procUnit[b.Proc]
		for _, m := range b.Mems {
			for _, obj := range patternObjects(m.Pattern) {
				if !p.Objects[obj].Heap && owner[obj] == -1 {
					owner[obj] = u
				}
			}
		}
	}
	rr := 0
	for obj := range p.Objects {
		if p.Objects[obj].Heap {
			continue
		}
		u := owner[obj]
		if u == -1 {
			u = rr % nUnits
			rr++
		}
		units[u].Globals = append(units[u].Globals, isa.ObjectID(obj))
	}
	return units
}

// patternObjects lists the objects a pattern can touch.
func patternObjects(pat isa.AccessPattern) []isa.ObjectID {
	switch pt := pat.(type) {
	case isa.Stream:
		return []isa.ObjectID{pt.Object}
	case isa.RandomInObject:
		return []isa.ObjectID{pt.Object}
	case isa.PoolChase:
		return pt.Pool
	case isa.Blocked:
		return pt.Objects
	default:
		return nil
	}
}

// Reorder produces the perturbed link line for the given seed: procedures
// are shuffled within each unit and the unit order itself is permuted,
// exactly the two randomizations Camino applies (§5.3). Seed zero is
// defined as the identity layout (no perturbation), which serves as the
// "as-compiled" baseline.
func Reorder(units []Unit, seed uint64) []Unit {
	out := make([]Unit, len(units))
	for i, u := range units {
		cp := u
		cp.Procs = append([]isa.ProcID(nil), u.Procs...)
		cp.Globals = append([]isa.ObjectID(nil), u.Globals...)
		out[i] = cp
	}
	if seed == 0 {
		return out
	}
	rng := xrand.New(seed)
	for i := range out {
		pr := rng.Derive(tagProcShuffle, uint64(i))
		pr.Shuffle(len(out[i].Procs), func(a, b int) {
			out[i].Procs[a], out[i].Procs[b] = out[i].Procs[b], out[i].Procs[a]
		})
	}
	ur := rng.Derive(tagUnitShuffle)
	ur.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// LinkConfig controls address assignment.
type LinkConfig struct {
	// CodeBase is the address of the first instruction byte. Zero means
	// 0x400000 (the conventional ELF text base).
	CodeBase uint64
	// DataBase is the address of the first global data byte. Zero means
	// 0x10000000.
	DataBase uint64
	// ProcAlign aligns procedure entry points. Zero means 16.
	ProcAlign uint64
	// FetchAlign aligns branch-target blocks to fetch-block boundaries,
	// the compiler heuristic described in §4.1. Zero disables it.
	FetchAlign uint64
	// GlobalAlign aligns each global object. Zero means 64 (a cache line).
	GlobalAlign uint64
}

func (c *LinkConfig) fillDefaults() {
	if c.CodeBase == 0 {
		c.CodeBase = 0x400000
	}
	if c.DataBase == 0 {
		c.DataBase = 0x10000000
	}
	if c.ProcAlign == 0 {
		c.ProcAlign = 16
	}
	if c.GlobalAlign == 0 {
		c.GlobalAlign = 64
	}
}

// Executable is a linked program: the layout-free Program plus concrete
// addresses. It is the unit of measurement in an interferometry campaign —
// "each combined executable is like a single telescope" (§4.3).
type Executable struct {
	Program *isa.Program
	// Seed is the layout seed that produced this executable.
	Seed uint64
	// BlockAddr is the address of each block's first instruction byte.
	BlockAddr []uint64
	// ProcAddr is the entry address of each procedure.
	ProcAddr []uint64
	// GlobalBase is the base address of each non-heap object (zero for
	// heap objects, which are placed by the allocator at run time).
	GlobalBase []uint64
	// CodeBase/CodeLimit bound the text segment; DataBase/DataLimit bound
	// the global data segment.
	CodeBase, CodeLimit uint64
	DataBase, DataLimit uint64
	// LinkOrder is the final procedure layout order.
	LinkOrder []isa.ProcID
}

// Link lays out the reordered units into an executable. Within a unit,
// procedures appear in their (already shuffled) unit order; within a
// procedure, blocks keep program order, since basic-block order inside a
// procedure is fixed by its control flow.
func Link(p *isa.Program, units []Unit, seed uint64, cfg LinkConfig) (*Executable, error) {
	cfg.fillDefaults()
	exe := &Executable{
		Program:    p,
		Seed:       seed,
		BlockAddr:  make([]uint64, len(p.Blocks)),
		ProcAddr:   make([]uint64, len(p.Procs)),
		GlobalBase: make([]uint64, len(p.Objects)),
		CodeBase:   cfg.CodeBase,
		DataBase:   cfg.DataBase,
	}

	seenProc := make([]bool, len(p.Procs))
	addr := cfg.CodeBase
	for _, u := range units {
		for _, pid := range u.Procs {
			if int(pid) >= len(p.Procs) {
				return nil, fmt.Errorf("toolchain: unit %q references missing procedure %d", u.Name, pid)
			}
			if seenProc[pid] {
				return nil, fmt.Errorf("toolchain: procedure %d appears in multiple units", pid)
			}
			seenProc[pid] = true
			addr = align(addr, cfg.ProcAlign)
			exe.ProcAddr[pid] = addr
			proc := &p.Procs[pid]
			for _, bid := range proc.Blocks {
				if cfg.FetchAlign > 1 && isBranchTarget(p, bid) {
					addr = align(addr, cfg.FetchAlign)
				}
				exe.BlockAddr[bid] = addr
				addr += uint64(p.Blocks[bid].Bytes)
			}
			exe.LinkOrder = append(exe.LinkOrder, pid)
		}
	}
	for i, seen := range seenProc {
		if !seen {
			return nil, fmt.Errorf("toolchain: procedure %d (%s) missing from link line", i, p.Procs[i].Name)
		}
	}
	exe.CodeLimit = addr

	daddr := cfg.DataBase
	seenObj := make([]bool, len(p.Objects))
	for _, u := range units {
		for _, obj := range u.Globals {
			if int(obj) >= len(p.Objects) {
				return nil, fmt.Errorf("toolchain: unit %q references missing object %d", u.Name, obj)
			}
			if p.Objects[obj].Heap {
				return nil, fmt.Errorf("toolchain: heap object %d in unit global list", obj)
			}
			if seenObj[obj] {
				return nil, fmt.Errorf("toolchain: object %d appears in multiple units", obj)
			}
			seenObj[obj] = true
			daddr = align(daddr, cfg.GlobalAlign)
			exe.GlobalBase[obj] = daddr
			daddr += p.Objects[obj].Size
		}
	}
	for i := range p.Objects {
		if !p.Objects[i].Heap && !seenObj[i] {
			return nil, fmt.Errorf("toolchain: global object %d missing from all units", i)
		}
	}
	exe.DataLimit = daddr
	return exe, nil
}

// Builder compiles a program once and links arbitrarily many layouts from
// the shared units. Compilation is layout-independent, so a campaign that
// measures hundreds of layouts should pay for it exactly once; only the
// Reorder+Link steps depend on the seed. Reorder copies the shared units
// before shuffling, so a Builder is safe for concurrent Build calls from
// many workers.
type Builder struct {
	prog    *isa.Program
	units   []Unit
	lcfg    LinkConfig
	metrics *BuilderMetrics
}

// BuilderMetrics are the builder's observability instruments, resolved
// by the caller (internal/core builds them from its obs registry). Any
// field — or the whole struct — may be nil.
type BuilderMetrics struct {
	// Builds counts Build calls.
	Builds *obs.Counter
	// BuildSeconds is the reorder+link latency distribution.
	BuildSeconds *obs.Histogram
}

// Observe attaches metrics to the builder. Call before sharing the
// builder across workers: Build reads the pointer without a lock.
func (b *Builder) Observe(m *BuilderMetrics) { b.metrics = m }

// NewBuilder compiles the program and returns a Builder that links layouts
// from the shared compilation.
func NewBuilder(p *isa.Program, ccfg CompileConfig, lcfg LinkConfig) *Builder {
	return &Builder{prog: p, units: Compile(p, ccfg), lcfg: lcfg}
}

// Build links the layout for one seed. The result is bit-identical to
// BuildLayout with the same program, seed and configs.
func (b *Builder) Build(seed uint64) (*Executable, error) {
	if m := b.metrics; m != nil {
		t0 := time.Now()
		exe, err := Link(b.prog, Reorder(b.units, seed), seed, b.lcfg)
		m.BuildSeconds.Observe(time.Since(t0).Seconds())
		m.Builds.Inc()
		return exe, err
	}
	return Link(b.prog, Reorder(b.units, seed), seed, b.lcfg)
}

// CacheKey fingerprints everything that determines the builder's output
// for a given seed: the layout-relevant program shape (block sizes,
// procedure structure, branch targets — which drive fetch alignment —
// and global object sizes), the compile-time unit partition, and the
// link configuration. Two builders with equal keys produce identical
// executables for every seed. Attestation is what the key keys:
// core.LayoutRunner.AttestationKey hashes it into every observation's
// fingerprint (DESIGN.md §14), so its bytes must not change between
// builds — a coordinator and a worker from different commits must
// compute the same key.
func (b *Builder) CacheKey() string {
	h := sha256.New()
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	ws := func(s string) {
		wu(uint64(len(s)))
		h.Write([]byte(s))
	}
	p := b.prog
	ws("interferometry-layout-v1")
	ws(p.Name)
	wu(p.Seed)
	wu(uint64(p.Main))
	wu(uint64(len(p.Blocks)))
	for i := range p.Blocks {
		blk := &p.Blocks[i]
		wu(uint64(blk.Proc))
		wu(uint64(blk.Bytes))
		wu(uint64(blk.Term.Kind))
		wu(uint64(blk.Term.Target))
	}
	wu(uint64(len(p.Procs)))
	for i := range p.Procs {
		ws(p.Procs[i].Name)
		wu(uint64(len(p.Procs[i].Blocks)))
		for _, bid := range p.Procs[i].Blocks {
			wu(uint64(bid))
		}
	}
	wu(uint64(len(p.Objects)))
	for i := range p.Objects {
		wu(p.Objects[i].Size)
		if p.Objects[i].Heap {
			wu(1)
		} else {
			wu(0)
		}
	}
	wu(uint64(len(b.units)))
	for i := range b.units {
		u := &b.units[i]
		ws(u.Name)
		wu(uint64(len(u.Procs)))
		for _, pid := range u.Procs {
			wu(uint64(pid))
		}
		wu(uint64(len(u.Globals)))
		for _, obj := range u.Globals {
			wu(uint64(obj))
		}
	}
	lcfg := b.lcfg
	lcfg.fillDefaults()
	wu(lcfg.CodeBase)
	wu(lcfg.DataBase)
	wu(lcfg.ProcAlign)
	wu(lcfg.FetchAlign)
	wu(lcfg.GlobalAlign)
	return hex.EncodeToString(h.Sum(nil))
}

// BuildLayout is the convenience pipeline: compile once, reorder with the
// seed, link. It is what one-shot callers use; campaign code holds a
// Builder so the compile is shared across all layouts.
func BuildLayout(p *isa.Program, seed uint64, ccfg CompileConfig, lcfg LinkConfig) (*Executable, error) {
	return NewBuilder(p, ccfg, lcfg).Build(seed)
}

// CheckExecutable validates the structural invariants a linked
// executable must satisfy: every block and procedure address lies inside
// the text segment, every non-heap global lies inside the data segment,
// and the link order covers each procedure exactly once. Link upholds all
// of these by construction; the check exists for the campaign
// supervisor, which revalidates executables at the build seam so that a
// corrupted build (fault injection in tests, bit rot or a future buggy
// layout transform in production) is caught and retried instead of
// silently measured. layout is the campaign layout index (negative for
// "not part of a campaign"); it and the executable's layout seed are
// embedded in every message so a failed invariant is reproducible from
// the error string alone.
func CheckExecutable(e *Executable, layout int) error {
	if e == nil || e.Program == nil {
		return fmt.Errorf("toolchain: %s: nil executable", layoutRef(layout, 0))
	}
	ref := layoutRef(layout, e.Seed)
	p := e.Program
	if len(e.BlockAddr) != len(p.Blocks) || len(e.ProcAddr) != len(p.Procs) || len(e.GlobalBase) != len(p.Objects) {
		return fmt.Errorf("toolchain: %s: executable tables do not match program shape", ref)
	}
	if e.CodeLimit < e.CodeBase || e.DataLimit < e.DataBase {
		return fmt.Errorf("toolchain: %s: inverted segment bounds", ref)
	}
	for id := range p.Blocks {
		addr := e.BlockAddr[id]
		if addr < e.CodeBase || addr+uint64(p.Blocks[id].Bytes) > e.CodeLimit {
			return fmt.Errorf("toolchain: %s: block %d at %#x outside text segment [%#x,%#x)", ref, id, addr, e.CodeBase, e.CodeLimit)
		}
	}
	for id := range p.Procs {
		if a := e.ProcAddr[id]; a < e.CodeBase || a >= e.CodeLimit {
			return fmt.Errorf("toolchain: %s: procedure %d at %#x outside text segment", ref, id, a)
		}
	}
	for id := range p.Objects {
		if p.Objects[id].Heap {
			continue
		}
		base := e.GlobalBase[id]
		if base < e.DataBase || base+p.Objects[id].Size > e.DataLimit {
			return fmt.Errorf("toolchain: %s: global %d at %#x outside data segment", ref, id, base)
		}
	}
	if len(e.LinkOrder) != len(p.Procs) {
		return fmt.Errorf("toolchain: %s: link order covers %d of %d procedures", ref, len(e.LinkOrder), len(p.Procs))
	}
	seen := make([]bool, len(p.Procs))
	for _, pid := range e.LinkOrder {
		if int(pid) >= len(seen) || seen[pid] {
			return fmt.Errorf("toolchain: %s: link order repeats or exceeds procedure %d", ref, pid)
		}
		seen[pid] = true
	}
	return nil
}

// layoutRef renders the (layout index, layout seed) identity used in
// CheckExecutable messages.
func layoutRef(layout int, seed uint64) string {
	if layout < 0 {
		return fmt.Sprintf("layout seed %#x", seed)
	}
	return fmt.Sprintf("layout %d (layout seed %#x)", layout, seed)
}

// isBranchTarget reports whether any terminator in the block's procedure
// targets it (the alignment heuristic only applies to explicit targets,
// not fallthrough successors).
func isBranchTarget(p *isa.Program, bid isa.BlockID) bool {
	proc := &p.Procs[p.Blocks[bid].Proc]
	for _, other := range proc.Blocks {
		t := &p.Blocks[other].Term
		switch t.Kind {
		case isa.TermCondBranch, isa.TermJump:
			if t.Target == bid {
				return true
			}
		}
	}
	return false
}

func align(addr, a uint64) uint64 {
	if a <= 1 {
		return addr
	}
	return (addr + a - 1) &^ (a - 1)
}

// BlockEnd returns one past the last code byte of the block.
func (e *Executable) BlockEnd(id isa.BlockID) uint64 {
	return e.BlockAddr[id] + uint64(e.Program.Blocks[id].Bytes)
}

// TermAddr returns the address of the block's terminator instruction,
// approximated as the last 4 bytes of the block. This is the PC the branch
// predictor and BTB hash.
func (e *Executable) TermAddr(id isa.BlockID) uint64 {
	end := e.BlockEnd(id)
	if end >= 4 {
		return end - 4
	}
	return end
}

// CodeBytes returns the linked text size including alignment padding.
func (e *Executable) CodeBytes() uint64 { return e.CodeLimit - e.CodeBase }
