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
type LTAGE struct {
	name string

	base []counter // bimodal base predictor

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

	useAltOnNA int8 // 4-bit signed counter: prefer altpred for weak entries

	lfsr uint64 // deterministic allocation randomness

	ticks      uint64 // updates since last graceful useful-bit reset
	resetEvery uint64

	loop *loopPredictor

	// Scratch from the last Predict, consumed by Update.
	lastHash     uint64 // hashPC(predictedPC), computed once per Predict
	lastProvider int    // component index, -1 = base
	lastAlt      int
	lastProvPred bool
	lastAltPred  bool
	lastWeak     bool
	lastIdx      []int
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
	entries []tageEntry
	// Folded histories for index and tag computation.
	foldIdx  folded
	foldTag1 folded
	foldTag2 folded
}

type tageEntry struct {
	ctr int8 // signed 3-bit: >= 0 predicts taken
	tag uint16
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
		name:       fmt.Sprintf("l-tage-%dx2^%d", cfg.NumTables, cfg.LogTagged),
		base:       make([]counter, 1<<cfg.LogBase),
		comps:      make([]tageComp, cfg.NumTables),
		lfsr:       0x1234567890abcdef,
		resetEvery: 256 * 1024,
		loop:       newLoopPredictor(6),
		lastIdx:    make([]int, cfg.NumTables),
		lastTag:    make([]uint16, cfg.NumTables),
	}
	// Geometric history lengths between MinHist and MaxHist.
	ratio := math.Pow(float64(cfg.MaxHist)/float64(cfg.MinHist), 1/float64(cfg.NumTables-1))
	hl := float64(cfg.MinHist)
	for i := range l.comps {
		c := &l.comps[i]
		c.logg = cfg.LogTagged
		c.histLen = int(hl + 0.5)
		if i > 0 && c.histLen <= l.comps[i-1].histLen {
			c.histLen = l.comps[i-1].histLen + 1
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
		c.entries = make([]tageEntry, 1<<c.logg)
		c.foldIdx.init(c.histLen, c.logg)
		c.foldTag1.init(c.histLen, c.tagBits)
		c.foldTag2.init(c.histLen, c.tagBits-1)
	}
	l.histLen = l.comps[len(l.comps)-1].histLen
	ring := 1
	for ring <= l.histLen {
		ring <<= 1
	}
	l.hist = make([]uint8, ring)
	l.histMask = ring - 1
	return l
}

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

func (l *LTAGE) baseIndex(h uint64) int {
	return int(h & uint64(len(l.base)-1))
}

// Predict implements Predictor.
func (l *LTAGE) Predict(pc uint64) bool {
	h := hashPC(pc)
	l.predictedPC = pc
	l.lastHash = h
	l.lastProvider, l.lastAlt = -1, -1

	idx, tags := l.lastIdx, l.lastTag
	for i := range l.comps {
		c := &l.comps[i]
		idx[i] = c.index(h)
		tags[i] = c.tag(h)
	}
	// Longest-history match is the provider; next match is the alternate.
	for i := len(l.comps) - 1; i >= 0; i-- {
		e := &l.comps[i].entries[l.lastIdx[i]]
		if e.tag == l.lastTag[i] {
			if l.lastProvider == -1 {
				l.lastProvider = i
			} else {
				l.lastAlt = i
				break
			}
		}
	}

	basePred := l.base[l.baseIndex(h)].taken()
	l.lastAltPred = basePred
	if l.lastAlt >= 0 {
		l.lastAltPred = l.comps[l.lastAlt].entries[l.lastIdx[l.lastAlt]].ctr >= 0
	}

	pred := basePred
	l.lastWeak = false
	if l.lastProvider >= 0 {
		e := &l.comps[l.lastProvider].entries[l.lastIdx[l.lastProvider]]
		l.lastProvPred = e.ctr >= 0
		// A "newly allocated" weak entry (|ctr| minimal, u==0) may be less
		// reliable than the alternate prediction.
		l.lastWeak = (e.ctr == 0 || e.ctr == -1) && e.u == 0
		if l.lastWeak && l.useAltOnNA >= 0 {
			pred = l.lastAltPred
		} else {
			pred = l.lastProvPred
		}
	}

	// Loop predictor overrides when confident.
	l.lastLoopHit, l.lastLoopPred = l.loop.predict(h)
	if l.lastLoopHit {
		pred = l.lastLoopPred
	}
	return pred
}

// Update implements Predictor.
func (l *LTAGE) Update(pc uint64, taken bool) {
	if pc != l.predictedPC {
		// Tolerate out-of-protocol use: recompute prediction state.
		l.Predict(pc)
	}
	h := l.lastHash

	tagePred := l.tagePrediction()
	// A confidently wrong loop entry is freed immediately, as in L-TAGE;
	// without this, a corrupted entry (e.g. two aliasing loop branches)
	// would override the tagged tables forever.
	if l.lastLoopHit && l.lastLoopPred != taken {
		l.loop.invalidate(h)
	}
	l.loop.update(h, taken, tagePred == taken)

	// Train useAltOnNA on weak-provider cases.
	if l.lastProvider >= 0 && l.lastWeak && l.lastProvPred != l.lastAltPred {
		l.useAltOnNA = satSigned(l.useAltOnNA, l.lastAltPred == taken, -8, 7)
	}

	// Allocate on a TAGE misprediction, in a component with longer
	// history than the provider.
	if tagePred != taken && l.lastProvider < len(l.comps)-1 {
		l.allocate(taken)
	}

	// Update the provider (and sometimes the alternate/base).
	if l.lastProvider >= 0 {
		c := &l.comps[l.lastProvider]
		e := &c.entries[l.lastIdx[l.lastProvider]]
		e.ctr = satSigned(e.ctr, taken, -4, 3)
		// Useful counter: provider was right and alternate was wrong.
		if l.lastProvPred != l.lastAltPred {
			if l.lastProvPred == taken {
				if e.u < 3 {
					e.u++
				}
			} else if e.u > 0 {
				e.u--
			}
		}
		// When the provider entry is still weak, also train the base.
		if e.u == 0 {
			bi := l.baseIndex(h)
			l.base[bi] = l.base[bi].update(taken)
		}
	} else {
		bi := l.baseIndex(h)
		l.base[bi] = l.base[bi].update(taken)
	}

	// Graceful periodic reset of useful counters.
	l.ticks++
	if l.ticks >= l.resetEvery {
		l.ticks = 0
		for ci := range l.comps {
			for ei := range l.comps[ci].entries {
				l.comps[ci].entries[ei].u >>= 1
			}
		}
	}

	l.pushHistory(taken)
}

// tagePrediction reconstructs the TAGE component of the last prediction
// (ignoring the loop predictor override).
func (l *LTAGE) tagePrediction() bool {
	if l.lastProvider < 0 {
		return l.lastAltPred
	}
	if l.lastWeak && l.useAltOnNA >= 0 {
		return l.lastAltPred
	}
	return l.lastProvPred
}

func (l *LTAGE) allocate(taken bool) {
	// Candidates are the components above the provider with a free
	// (u==0) entry; pick one with LFSR randomness biased toward shorter
	// histories. If none are free, age all candidates. Only the first
	// two candidates can be picked, so the scan stops at the second and
	// keeps no candidate list.
	start := l.lastProvider + 1
	first, second := -1, -1
	for i := start; i < len(l.comps); i++ {
		if l.comps[i].entries[l.lastIdx[i]].u == 0 {
			if first >= 0 {
				second = i
				break
			}
			first = i
		}
	}
	if first < 0 {
		for i := start; i < len(l.comps); i++ {
			e := &l.comps[i].entries[l.lastIdx[i]]
			if e.u > 0 {
				e.u--
			}
		}
		return
	}
	pick := first
	if second >= 0 {
		l.lfsr = l.lfsr>>1 ^ (-(l.lfsr & 1) & 0xd800000000000000)
		if l.lfsr&3 == 0 { // 1/4 chance to skip to a longer history
			pick = second
		}
	}
	e := &l.comps[pick].entries[l.lastIdx[pick]]
	e.tag = l.lastTag[pick]
	e.u = 0
	if taken {
		e.ctr = 0
	} else {
		e.ctr = -1
	}
}

func (l *LTAGE) pushHistory(taken bool) {
	newBit := boolBit(taken)
	hist, mask := l.hist, l.histMask
	head := (l.head - 1) & mask
	l.head = head
	hist[head] = uint8(newBit)
	for i := range l.comps {
		c := &l.comps[i]
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
	bits := 2 * len(l.base)
	for i := range l.comps {
		c := &l.comps[i]
		bits += len(c.entries) * int(3+2+c.tagBits)
	}
	bits += l.histLen + 4
	bits += l.loop.sizeBits()
	return bits
}

// Reset implements Predictor.
func (l *LTAGE) Reset() {
	for i := range l.base {
		l.base[i] = 0
	}
	for ci := range l.comps {
		c := &l.comps[ci]
		for ei := range c.entries {
			c.entries[ei] = tageEntry{}
		}
		c.foldIdx.comp = 0
		c.foldTag1.comp = 0
		c.foldTag2.comp = 0
	}
	for i := range l.hist {
		l.hist[i] = 0
	}
	l.head = 0
	l.useAltOnNA = 0
	l.ticks = 0
	l.lfsr = 0x1234567890abcdef
	l.loop.reset()
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

func newLoopPredictor(logEntries uint) *loopPredictor {
	n := 1 << logEntries
	return &loopPredictor{entries: make([]loopEntry, n), mask: uint64(n - 1)}
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
