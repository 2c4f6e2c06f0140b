package branch

import (
	"fmt"
	"math"
)

// LTAGE is Seznec's L-TAGE predictor (JILP 2007, CBP-2 winner), "currently
// the most accurate branch predictor in the academic literature" at the
// time of the paper (§7.2.2): a bimodal base predictor, a set of
// partially-tagged components indexed with geometrically increasing
// global-history lengths, and a loop predictor for constant-trip loops.
//
// It is one outcome history plus one lane of tables. The history (the
// ring, the folded registers and the useful-bit tick counter) depends
// only on branch outcomes, which every code layout of a trace shares;
// LTAGEBank drives K lanes, one per layout, from one history.
type LTAGE struct {
	name string
	hist ltageHistory
	lane ltageLane
}

// ltageHistory is the part of L-TAGE state that depends only on the
// outcome stream: the tagged components' geometry with their folded
// history registers, the global history ring and the useful-bit tick
// counter.
type ltageHistory struct {
	comps []tageComp
	// hist is the global history as a ring of one outcome per byte:
	// hist[(head+age)&histMask] is the outcome age branches ago, age 0
	// the youngest. A push moves head back one slot, so the history is
	// read by index and never shifted. The ring holds more than histLen
	// outcomes, so the bit leaving the longest window is still there.
	hist     []uint8
	head     int
	histMask int
	histLen  int

	ticks      uint64 // updates since last graceful useful-bit reset
	resetEvery uint64
}

// ltageLane is the part of L-TAGE state that depends on the branch
// addresses, one per code layout: the base table, the tagged tables, the
// loop predictor, the allocation LFSR, useAltOnNA and the scratch a
// prediction leaves for its update.
type ltageLane struct {
	base []counter // bimodal base predictor
	// tagged holds every tagged component's table, component i's entries
	// at [i<<logg, (i+1)<<logg).
	tagged []tageEntry

	useAltOnNA int8 // 4-bit signed counter: prefer altpred for weak entries

	lfsr uint64 // deterministic allocation randomness

	loop loopPredictor

	// Scratch from the last predict, consumed by update.
	lastHash     uint64 // hashPC(predictedPC), computed once per predict
	lastProvider int    // component index, -1 = base
	lastAlt      int
	lastProvPred bool
	lastAltPred  bool
	lastWeak     bool
	lastIdx      []int // per component: the entry's index in tagged
	lastTag      []uint16
	lastLoopHit  bool
	lastLoopPred bool
	predictedPC  uint64
}

type tageComp struct {
	logg    uint // log2 entries
	tagBits uint // partial tag width
	histLen int  // history length
	idxMask uint64
	tagMask uint64
	// Folded histories for index and tag computation.
	foldIdx  folded
	foldTag1 folded
	foldTag2 folded
}

// tageEntry is 4 bytes: the tag leads, so the two one-byte counters
// need no padding.
type tageEntry struct {
	tag uint16
	ctr int8  // signed 3-bit: >= 0 predicts taken
	u   uint8 // 2-bit useful counter
}

// folded is a circularly-folded history register (Seznec's trick for O(1)
// index computation with arbitrarily long histories).
type folded struct {
	comp    uint64
	clen    uint // compressed length (output bits)
	shift   uint // olen % clen: where the outgoing bit lands, fixed per register
	outMask uint64
}

func (f *folded) init(olen int, clen uint) {
	f.comp = 0
	f.clen = clen
	f.shift = uint(olen) % clen
	f.outMask = 1<<clen - 1
}

// update folds in the newest history bit (new) and folds out the oldest
// (old). The register is computed in a local and stored once, and the
// shift counts are masked to 63 (both are below 64 by construction), so
// the update is a handful of register operations.
func (f *folded) update(newBit, oldBit uint64) {
	c := f.comp<<1 | newBit
	c ^= oldBit << (f.shift & 63)
	c ^= c >> (f.clen & 63)
	f.comp = c & f.outMask
}

// LTAGEConfig sizes an LTAGE instance.
type LTAGEConfig struct {
	// NumTables is the number of tagged components. Zero means 12.
	NumTables int
	// LogBase is log2 of the bimodal table. Zero means 14.
	LogBase uint
	// LogTagged is log2 entries of each tagged table. Zero means 10.
	LogTagged uint
	// MinHist and MaxHist bound the geometric history series. Zeros mean
	// 4 and 640.
	MinHist, MaxHist int
}

func (c *LTAGEConfig) fillDefaults() {
	if c.NumTables == 0 {
		c.NumTables = 12
	}
	if c.LogBase == 0 {
		c.LogBase = 14
	}
	if c.LogTagged == 0 {
		c.LogTagged = 10
	}
	if c.MinHist == 0 {
		c.MinHist = 4
	}
	if c.MaxHist == 0 {
		c.MaxHist = 640
	}
}

// NewLTAGE builds an L-TAGE predictor.
func NewLTAGE(cfg LTAGEConfig) *LTAGE {
	cfg.fillDefaults()
	l := &LTAGE{
		name: fmt.Sprintf("l-tage-%dx2^%d", cfg.NumTables, cfg.LogTagged),
		hist: ltageHistory{
			comps:      make([]tageComp, cfg.NumTables),
			resetEvery: 256 * 1024,
		},
	}
	h := &l.hist
	// Geometric history lengths between MinHist and MaxHist.
	ratio := math.Pow(float64(cfg.MaxHist)/float64(cfg.MinHist), 1/float64(cfg.NumTables-1))
	hl := float64(cfg.MinHist)
	for i := range h.comps {
		c := &h.comps[i]
		c.logg = cfg.LogTagged
		c.histLen = int(hl + 0.5)
		if i > 0 && c.histLen <= h.comps[i-1].histLen {
			c.histLen = h.comps[i-1].histLen + 1
		}
		hl *= ratio
		// Tag widths grow with history length, as in the CBP-2 entry.
		switch {
		case i < cfg.NumTables/3:
			c.tagBits = 9
		case i < 2*cfg.NumTables/3:
			c.tagBits = 11
		default:
			c.tagBits = 13
		}
		c.idxMask = 1<<c.logg - 1
		c.tagMask = 1<<c.tagBits - 1
		c.foldIdx.init(c.histLen, c.logg)
		c.foldTag1.init(c.histLen, c.tagBits)
		c.foldTag2.init(c.histLen, c.tagBits-1)
	}
	h.histLen = h.comps[len(h.comps)-1].histLen
	ring := 1
	for ring <= h.histLen {
		ring <<= 1
	}
	h.hist = make([]uint8, ring)
	h.histMask = ring - 1
	l.lane = newLTAGELane(h, 1<<cfg.LogBase)
	return l
}

// newLTAGELane builds one lane of tables, in power-on state, for the
// components of h and a base table of baseEntries counters.
func newLTAGELane(h *ltageHistory, baseEntries int) ltageLane {
	n := len(h.comps)
	return ltageLane{
		base:    make([]counter, baseEntries),
		tagged:  make([]tageEntry, n<<h.comps[0].logg),
		lfsr:    ltageLFSRSeed,
		loop:    newLoopPredictor(6),
		lastIdx: make([]int, n),
		lastTag: make([]uint16, n),
	}
}

// ltageLFSRSeed is the allocation LFSR's power-on state.
const ltageLFSRSeed = 0x1234567890abcdef

// NewLTAGEDefault builds the standard ~32KB configuration used in the
// paper-scale experiments.
func NewLTAGEDefault() *LTAGE { return NewLTAGE(LTAGEConfig{}) }

// index and tag derive the component's table index and partial tag from
// the branch's PC hash h.
func (c *tageComp) index(h uint64) int {
	return int((h ^ h>>(c.logg&63) ^ c.foldIdx.comp) & c.idxMask)
}

func (c *tageComp) tag(h uint64) uint16 {
	return uint16((h ^ c.foldTag1.comp ^ c.foldTag2.comp<<1) & c.tagMask)
}

func (ln *ltageLane) baseIndex(h uint64) int {
	return int(h & uint64(len(ln.base)-1))
}

// Predict implements Predictor.
func (l *LTAGE) Predict(pc uint64) bool { return l.lane.predict(&l.hist, pc) }

// Update implements Predictor.
func (l *LTAGE) Update(pc uint64, taken bool) {
	if pc != l.lane.predictedPC {
		// Tolerate out-of-protocol use: recompute prediction state.
		l.lane.predict(&l.hist, pc)
	}
	l.lane.update(taken)
	if l.hist.tick() {
		l.lane.ageUseful()
	}
	l.hist.push(taken)
}

// predict is the lane's prediction for the branch at pc under history h.
func (ln *ltageLane) predict(h *ltageHistory, pc uint64) bool {
	hash := hashPC(pc)
	ln.predictedPC = pc
	ln.lastHash = hash
	ln.lastProvider, ln.lastAlt = -1, -1

	comps, tagged := h.comps, ln.tagged
	idx, tags := ln.lastIdx[:len(comps)], ln.lastTag[:len(comps)]
	for i := range comps {
		c := &comps[i]
		idx[i] = i<<c.logg | c.index(hash)
		tags[i] = c.tag(hash)
	}
	// Longest-history match is the provider; next match is the alternate.
	for i := len(comps) - 1; i >= 0; i-- {
		if tagged[idx[i]].tag == tags[i] {
			if ln.lastProvider == -1 {
				ln.lastProvider = i
			} else {
				ln.lastAlt = i
				break
			}
		}
	}

	basePred := ln.base[ln.baseIndex(hash)].taken()
	ln.lastAltPred = basePred
	if ln.lastAlt >= 0 {
		ln.lastAltPred = tagged[idx[ln.lastAlt]].ctr >= 0
	}

	pred := basePred
	ln.lastWeak = false
	if ln.lastProvider >= 0 {
		e := &tagged[idx[ln.lastProvider]]
		ln.lastProvPred = e.ctr >= 0
		// A "newly allocated" weak entry (|ctr| minimal, u==0) may be less
		// reliable than the alternate prediction.
		ln.lastWeak = (e.ctr == 0 || e.ctr == -1) && e.u == 0
		if ln.lastWeak && ln.useAltOnNA >= 0 {
			pred = ln.lastAltPred
		} else {
			pred = ln.lastProvPred
		}
	}

	// Loop predictor overrides when confident.
	ln.lastLoopHit, ln.lastLoopPred = ln.loop.predict(hash)
	if ln.lastLoopHit {
		pred = ln.lastLoopPred
	}
	return pred
}

// update trains the lane with the resolved outcome of the branch its
// last predict saw. The history is the caller's to advance.
func (ln *ltageLane) update(taken bool) {
	h := ln.lastHash

	tagePred := ln.tagePrediction()
	// A confidently wrong loop entry is freed immediately, as in L-TAGE;
	// without this, a corrupted entry (e.g. two aliasing loop branches)
	// would override the tagged tables forever.
	if ln.lastLoopHit && ln.lastLoopPred != taken {
		ln.loop.invalidate(h)
	}
	ln.loop.update(h, taken, tagePred == taken)

	// Train useAltOnNA on weak-provider cases.
	if ln.lastProvider >= 0 && ln.lastWeak && ln.lastProvPred != ln.lastAltPred {
		ln.useAltOnNA = satSigned(ln.useAltOnNA, ln.lastAltPred == taken, -8, 7)
	}

	// Allocate on a TAGE misprediction, in a component with longer
	// history than the provider.
	if tagePred != taken && ln.lastProvider < len(ln.lastIdx)-1 {
		ln.allocate(taken)
	}

	// Update the provider (and sometimes the alternate/base).
	if ln.lastProvider >= 0 {
		e := &ln.tagged[ln.lastIdx[ln.lastProvider]]
		e.ctr = satSigned(e.ctr, taken, -4, 3)
		// Useful counter: provider was right and alternate was wrong.
		if ln.lastProvPred != ln.lastAltPred {
			if ln.lastProvPred == taken {
				if e.u < 3 {
					e.u++
				}
			} else if e.u > 0 {
				e.u--
			}
		}
		// When the provider entry is still weak, also train the base.
		if e.u == 0 {
			bi := ln.baseIndex(h)
			ln.base[bi] = ln.base[bi].update(taken)
		}
	} else {
		bi := ln.baseIndex(h)
		ln.base[bi] = ln.base[bi].update(taken)
	}
}

// tagePrediction reconstructs the TAGE component of the last prediction
// (ignoring the loop predictor override).
func (ln *ltageLane) tagePrediction() bool {
	if ln.lastProvider < 0 {
		return ln.lastAltPred
	}
	if ln.lastWeak && ln.useAltOnNA >= 0 {
		return ln.lastAltPred
	}
	return ln.lastProvPred
}

func (ln *ltageLane) allocate(taken bool) {
	// Candidates are the components above the provider with a free
	// (u==0) entry; pick one with LFSR randomness biased toward shorter
	// histories. If none are free, age all candidates. Only the first
	// two candidates can be picked, so the scan stops at the second and
	// keeps no candidate list.
	idx := ln.lastIdx
	start := ln.lastProvider + 1
	first, second := -1, -1
	for i := start; i < len(idx); i++ {
		if ln.tagged[idx[i]].u == 0 {
			if first >= 0 {
				second = i
				break
			}
			first = i
		}
	}
	if first < 0 {
		for i := start; i < len(idx); i++ {
			e := &ln.tagged[idx[i]]
			if e.u > 0 {
				e.u--
			}
		}
		return
	}
	pick := first
	if second >= 0 {
		ln.lfsr = ln.lfsr>>1 ^ (-(ln.lfsr & 1) & 0xd800000000000000)
		if ln.lfsr&3 == 0 { // 1/4 chance to skip to a longer history
			pick = second
		}
	}
	e := &ln.tagged[idx[pick]]
	e.tag = ln.lastTag[pick]
	e.u = 0
	if taken {
		e.ctr = 0
	} else {
		e.ctr = -1
	}
}

// ageUseful is the graceful periodic reset: every useful counter halves.
func (ln *ltageLane) ageUseful() {
	for i := range ln.tagged {
		ln.tagged[i].u >>= 1
	}
}

// tick counts one update and reports whether it is due for the graceful
// useful-bit reset.
func (h *ltageHistory) tick() bool {
	h.ticks++
	if h.ticks < h.resetEvery {
		return false
	}
	h.ticks = 0
	return true
}

// push shifts the outcome into the ring and every folded register.
func (h *ltageHistory) push(taken bool) {
	newBit := boolBit(taken)
	hist, mask := h.hist, h.histMask
	head := (h.head - 1) & mask
	h.head = head
	hist[head] = uint8(newBit)
	for i := range h.comps {
		c := &h.comps[i]
		// The bit that just fell out of this component's window: age
		// histLen-1 before the push, so age histLen now.
		oldBit := uint64(hist[(head+c.histLen)&mask])
		c.foldIdx.update(newBit, oldBit)
		c.foldTag1.update(newBit, oldBit)
		c.foldTag2.update(newBit, oldBit)
	}
}

// Name implements Predictor.
func (l *LTAGE) Name() string { return l.name }

// SizeBits implements Predictor.
func (l *LTAGE) SizeBits() int {
	bits := 2 * len(l.lane.base)
	for i := range l.hist.comps {
		c := &l.hist.comps[i]
		bits += (1 << c.logg) * int(3+2+c.tagBits)
	}
	bits += l.hist.histLen + 4
	bits += l.lane.loop.sizeBits()
	return bits
}

// Reset implements Predictor.
func (l *LTAGE) Reset() {
	h := &l.hist
	for ci := range h.comps {
		c := &h.comps[ci]
		c.foldIdx.comp = 0
		c.foldTag1.comp = 0
		c.foldTag2.comp = 0
	}
	clear(h.hist)
	h.head = 0
	h.ticks = 0
	ln := &l.lane
	clear(ln.base)
	clear(ln.tagged)
	ln.useAltOnNA = 0
	ln.lfsr = ltageLFSRSeed
	ln.loop.reset()
}

// LTAGEBank is K L-TAGE predictors of one geometry fed one branch stream,
// one lane per code layout: lane k sees the branch at its own PC, and
// every lane sees the same outcome. So the lanes share one history —
// pushed once per branch instead of once per lane — and each keeps its
// own tables, loop predictor, LFSR and useAltOnNA. Each lane is
// bit-identical to a scalar LTAGE fed lane k's PCs: the lane step is
// the scalar Predict and Update, and the history a scalar LTAGE would
// keep per lane is the same in every lane.
type LTAGEBank struct {
	hist  ltageHistory
	lanes []ltageLane
}

// newLTAGEBank builds a bank of lanes predictors with l's geometry (see
// NewLanes). l becomes lane 0, its history the bank's, so l must be in
// power-on state and must not be used on its own afterwards; the other
// lanes start in power-on state.
func newLTAGEBank(l *LTAGE, lanes int) *LTAGEBank {
	b := &LTAGEBank{hist: l.hist, lanes: make([]ltageLane, lanes)}
	b.lanes[0] = l.lane
	for k := 1; k < lanes; k++ {
		b.lanes[k] = newLTAGELane(&b.hist, len(l.lane.base))
	}
	return b
}

// PredictUpdateRow runs every lane's Predict-then-Update step for one
// resolved branch: pcs[k] is the branch PC in lane k's layout, one per
// lane, and taken the shared outcome. Bit k of the returned mask is set
// iff lane k mispredicted. The history is pushed once, after every lane.
func (b *LTAGEBank) PredictUpdateRow(pcs []uint64, taken bool) uint64 {
	var wrong uint64
	h, lanes := &b.hist, b.lanes[:len(pcs)]
	for k := range lanes {
		ln := &lanes[k]
		if ln.predict(h, pcs[k]) != taken {
			wrong |= 1 << uint(k)
		}
		ln.update(taken)
	}
	if h.tick() {
		for k := range lanes {
			lanes[k].ageUseful()
		}
	}
	h.push(taken)
	return wrong
}

func satSigned(c int8, up bool, lo, hi int8) int8 {
	if up {
		if c < hi {
			return c + 1
		}
		return c
	}
	if c > lo {
		return c - 1
	}
	return c
}

// loopPredictor captures loops with constant trip counts: after the same
// trip count is observed confThreshold times in a row, it predicts the
// exit iteration exactly.
type loopPredictor struct {
	entries []loopEntry
	mask    uint64
}

type loopEntry struct {
	tag      uint16
	pastTrip uint16
	currTrip uint16
	conf     uint8
	valid    bool
}

const loopConfThreshold = 3

func newLoopPredictor(logEntries uint) loopPredictor {
	n := 1 << logEntries
	return loopPredictor{entries: make([]loopEntry, n), mask: uint64(n - 1)}
}

// slot finds the entry for the branch whose PC hash is h.
func (lp *loopPredictor) slot(h uint64) (*loopEntry, uint16) {
	tag := uint16((h>>6 ^ h>>13 ^ h>>21) & 0x3fff)
	return &lp.entries[h&lp.mask], tag
}

// invalidate frees the entry for the branch hashing to h if it
// currently matches.
func (lp *loopPredictor) invalidate(h uint64) {
	e, tag := lp.slot(h)
	if e.valid && e.tag == tag {
		*e = loopEntry{}
	}
}

// predict returns (confident, prediction) for the branch hashing to h.
func (lp *loopPredictor) predict(h uint64) (bool, bool) {
	e, tag := lp.slot(h)
	if !e.valid || e.tag != tag || e.conf < loopConfThreshold {
		return false, false
	}
	// Predict taken until the recorded trip count is reached.
	return true, e.currTrip+1 < e.pastTrip
}

func (lp *loopPredictor) update(h uint64, taken, tageWasCorrect bool) {
	e, tag := lp.slot(h)
	if !e.valid || e.tag != tag {
		// Allocate only on a TAGE mispredict of a not-taken outcome (a
		// potential loop exit), as in L-TAGE.
		if !tageWasCorrect && !taken {
			*e = loopEntry{tag: tag, valid: true}
		}
		return
	}
	if taken {
		if e.currTrip < ^uint16(0) {
			e.currTrip++
		}
		return
	}
	// Loop exit: compare trip counts.
	trip := e.currTrip + 1
	if e.pastTrip == trip {
		if e.conf < 7 {
			e.conf++
		}
	} else {
		e.pastTrip = trip
		e.conf = 0
	}
	e.currTrip = 0
}

func (lp *loopPredictor) sizeBits() int {
	// tag 14 + past 16 + curr 16 + conf 3 + valid 1.
	return len(lp.entries) * 50
}

func (lp *loopPredictor) reset() {
	for i := range lp.entries {
		lp.entries[i] = loopEntry{}
	}
}

// Compile-time interface check.
var _ Predictor = (*LTAGE)(nil)
