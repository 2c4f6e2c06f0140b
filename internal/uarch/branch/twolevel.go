package branch

import "fmt"

// Two-level adaptive predictors after Yeh & Patt. All three share the
// global-history mechanism and differ in how history and address combine
// into the pattern-table index:
//
//	GAs:     index = addr_bits ++ history   (set-partitioned tables)
//	gselect: index = addr_bits ++ history   (synonym used when the address
//	         field is wide; we keep both names for the config space)
//	gshare:  index = addr_bits XOR history  (McFarling)

// GAs is a two-level global-history predictor with per-address pattern
// table columns: the upper index bits come from the branch address, the
// lower bits from the global history register. The paper simulates "GAs
// branch predictors ranging in size from 2KB to 16KB" (§7.2) and believes
// the Xeon's predictor contains a GAs-style component (§5.4).
//
// Like LTAGE it is one history plus one lane: the history register
// depends only on outcomes, and GAsBank drives one pattern table per
// code layout from one register.
type GAs struct {
	hist  gasHistory
	table []counter
	name  string
}

// gasHistory is GAs state every layout shares: the index geometry and
// the global history register.
type gasHistory struct {
	addrBits, histBits uint
	ghr                uint64
}

// index is the pattern-table index of the branch at pc.
func (h *gasHistory) index(pc uint64) uint64 {
	addr := hashPC(pc) & (1<<h.addrBits - 1)
	hist := h.ghr & (1<<h.histBits - 1)
	return addr<<h.histBits | hist
}

func (h *gasHistory) push(taken bool) { h.ghr = h.ghr<<1 | boolBit(taken) }

// NewGAs builds a GAs predictor with 2^addrBits address sets and histBits
// bits of global history; the table has 2^(addrBits+histBits) counters.
func NewGAs(addrBits, histBits uint) *GAs {
	if addrBits+histBits > 28 {
		panic("branch: GAs table too large")
	}
	return &GAs{
		hist:  gasHistory{addrBits: addrBits, histBits: histBits},
		table: make([]counter, 1<<(addrBits+histBits)),
		name:  fmt.Sprintf("gas-a%d-h%d", addrBits, histBits),
	}
}

// Predict implements Predictor.
func (g *GAs) Predict(pc uint64) bool { return g.table[g.hist.index(pc)].taken() }

// Update implements Predictor.
func (g *GAs) Update(pc uint64, taken bool) {
	i := g.hist.index(pc)
	g.table[i] = g.table[i].update(taken)
	g.hist.push(taken)
}

// Name implements Predictor.
func (g *GAs) Name() string { return g.name }

// SizeBits implements Predictor.
func (g *GAs) SizeBits() int { return 2*len(g.table) + int(g.hist.histBits) }

// Reset implements Predictor.
func (g *GAs) Reset() {
	clear(g.table)
	g.hist.ghr = 0
}

// GAsBank is K GAs predictors of one geometry fed one branch stream, one
// lane per code layout: one global history register, pushed once per
// branch, and one pattern table per lane. Lane k is bit-identical to a
// scalar GAs fed lane k's PCs.
type GAsBank struct {
	hist   gasHistory
	tables [][]counter
}

// newGAsBank builds a bank of lanes predictors with g's geometry (see
// NewLanes). g's table becomes lane 0's and its history register the
// bank's, so g must be in power-on state and must not be used on its own
// afterwards; the other lanes start in power-on state.
func newGAsBank(g *GAs, lanes int) *GAsBank {
	b := &GAsBank{hist: g.hist, tables: make([][]counter, lanes)}
	b.tables[0] = g.table
	for k := 1; k < lanes; k++ {
		b.tables[k] = make([]counter, len(g.table))
	}
	return b
}

// PredictUpdateRow runs every lane's Predict-then-Update step for one
// resolved branch, as LTAGEBank.PredictUpdateRow does: pcs[k] is the
// branch PC in lane k's layout, bit k of the result is set iff lane k
// mispredicted, and the history register is pushed once.
func (b *GAsBank) PredictUpdateRow(pcs []uint64, taken bool) uint64 {
	var wrong uint64
	for k, t := range b.tables[:len(pcs)] {
		i := b.hist.index(pcs[k])
		c := t[i]
		if c.taken() != taken {
			wrong |= 1 << uint(k)
		}
		t[i] = c.update(taken)
	}
	b.hist.push(taken)
	return wrong
}

// Gshare is McFarling's gshare: pattern table indexed by PC XOR global
// history.
type Gshare struct {
	table    []counter
	histBits uint
	mask     uint64
	ghr      uint64
	name     string
}

// NewGshare builds a gshare predictor with the given table size (power of
// two) and history length.
func NewGshare(entries int, histBits uint) *Gshare {
	checkPow2(entries, "gshare entries")
	return &Gshare{
		table:    make([]counter, entries),
		histBits: histBits,
		mask:     uint64(entries - 1),
		name:     fmt.Sprintf("gshare-%dx%d", entries, histBits),
	}
}

func (g *Gshare) index(pc uint64) uint64 {
	hist := g.ghr & (1<<g.histBits - 1)
	return (hashPC(pc) ^ hist) & g.mask
}

// Predict implements Predictor.
func (g *Gshare) Predict(pc uint64) bool { return g.table[g.index(pc)].taken() }

// Update implements Predictor.
func (g *Gshare) Update(pc uint64, taken bool) {
	i := g.index(pc)
	g.table[i] = g.table[i].update(taken)
	g.ghr = g.ghr<<1 | boolBit(taken)
}

// Name implements Predictor.
func (g *Gshare) Name() string { return g.name }

// SizeBits implements Predictor.
func (g *Gshare) SizeBits() int { return 2*len(g.table) + int(g.histBits) }

// Reset implements Predictor.
func (g *Gshare) Reset() {
	for i := range g.table {
		g.table[i] = 0
	}
	g.ghr = 0
}

// PAs is a two-level local-history predictor: a per-branch history table
// indexed by PC feeds a shared pattern table.
type PAs struct {
	bht      []uint16 // local histories
	table    []counter
	histBits uint
	bhtMask  uint64
	patMask  uint64
	name     string
}

// NewPAs builds a PAs predictor with bhtEntries local-history registers of
// histBits bits and a pattern table of patEntries counters.
func NewPAs(bhtEntries, patEntries int, histBits uint) *PAs {
	checkPow2(bhtEntries, "PAs BHT entries")
	checkPow2(patEntries, "PAs pattern entries")
	if histBits > 16 {
		panic("branch: PAs history too long")
	}
	return &PAs{
		bht:      make([]uint16, bhtEntries),
		table:    make([]counter, patEntries),
		histBits: histBits,
		bhtMask:  uint64(bhtEntries - 1),
		patMask:  uint64(patEntries - 1),
		name:     fmt.Sprintf("pas-%dx%dx%d", bhtEntries, patEntries, histBits),
	}
}

func (p *PAs) index(pc uint64) (bhtIdx, patIdx uint64) {
	bhtIdx = hashPC(pc) & p.bhtMask
	hist := uint64(p.bht[bhtIdx]) & (1<<p.histBits - 1)
	patIdx = (hist ^ hashPC(pc)<<3) & p.patMask
	return
}

// Predict implements Predictor.
func (p *PAs) Predict(pc uint64) bool {
	_, pat := p.index(pc)
	return p.table[pat].taken()
}

// Update implements Predictor.
func (p *PAs) Update(pc uint64, taken bool) {
	bht, pat := p.index(pc)
	p.table[pat] = p.table[pat].update(taken)
	p.bht[bht] = p.bht[bht]<<1 | uint16(boolBit(taken))
}

// Name implements Predictor.
func (p *PAs) Name() string { return p.name }

// SizeBits implements Predictor.
func (p *PAs) SizeBits() int {
	return len(p.bht)*int(p.histBits) + 2*len(p.table)
}

// Reset implements Predictor.
func (p *PAs) Reset() {
	for i := range p.bht {
		p.bht[i] = 0
	}
	for i := range p.table {
		p.table[i] = 0
	}
}

// Hybrid combines two component predictors with a chooser table of 2-bit
// counters indexed by PC (Evers et al.; McFarling's combining predictor).
// The paper's reverse engineering suggests the Xeon E5440 predictor "is
// likely to contain a hybrid of a GAs-style branch predictor and a bimodal
// branch predictor" (§5.4) — NewXeonE5440 builds exactly that.
type Hybrid struct {
	a, b    Predictor // chooser counter >= 2 selects a
	chooser []counter
	mask    uint64
	name    string
}

// NewHybrid builds a hybrid of a and b with a chooser of the given size.
func NewHybrid(a, b Predictor, chooserEntries int) *Hybrid {
	checkPow2(chooserEntries, "hybrid chooser entries")
	return &Hybrid{
		a:       a,
		b:       b,
		chooser: make([]counter, chooserEntries),
		mask:    uint64(chooserEntries - 1),
		name:    fmt.Sprintf("hybrid(%s,%s)", a.Name(), b.Name()),
	}
}

func (h *Hybrid) index(pc uint64) uint64 { return hashPC(pc) & h.mask }

// Predict implements Predictor.
func (h *Hybrid) Predict(pc uint64) bool {
	if h.chooser[h.index(pc)].taken() {
		return h.a.Predict(pc)
	}
	return h.b.Predict(pc)
}

// Update implements Predictor.
func (h *Hybrid) Update(pc uint64, taken bool) {
	pa := h.a.Predict(pc)
	pb := h.b.Predict(pc)
	// Train the chooser toward the component that was right when they
	// disagree.
	if pa != pb {
		i := h.index(pc)
		h.chooser[i] = h.chooser[i].update(pa == taken)
	}
	h.a.Update(pc, taken)
	h.b.Update(pc, taken)
}

// Name implements Predictor.
func (h *Hybrid) Name() string { return h.name }

// SizeBits implements Predictor.
func (h *Hybrid) SizeBits() int {
	return h.a.SizeBits() + h.b.SizeBits() + 2*len(h.chooser)
}

// Reset implements Predictor.
func (h *Hybrid) Reset() {
	h.a.Reset()
	h.b.Reset()
	for i := range h.chooser {
		h.chooser[i] = 0
	}
}

// NewXeonE5440 builds the model of the real machine's predictor: a hybrid
// of a GAs-style global predictor and a bimodal predictor with a chooser,
// sized to a plausible Core-microarchitecture budget.
func NewXeonE5440() *Hybrid {
	h := NewHybrid(NewGAs(5, 8), NewBimodal(4096), 4096)
	h.name = "xeon-e5440"
	return h
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Compile-time interface checks.
var (
	_ Predictor = (*GAs)(nil)
	_ Predictor = (*Gshare)(nil)
	_ Predictor = (*PAs)(nil)
	_ Predictor = (*Hybrid)(nil)
)
