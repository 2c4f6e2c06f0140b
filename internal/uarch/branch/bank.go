package branch

import "fmt"

// Xeon-model geometry, fixed by NewXeonE5440: a hybrid of GAs(5,8) and
// a 4096-entry bimodal predictor under a 4096-entry chooser.
const (
	xeonGasAddrBits = 5
	xeonGasHistBits = 8
	xeonGasEntries  = 1 << (xeonGasAddrBits + xeonGasHistBits)
	xeonBimEntries  = 4096
	xeonChoEntries  = 4096
)

// XeonBank is K independent copies of the Xeon-model hybrid predictor
// (NewXeonE5440) with the component tables flattened into lane-major
// arrays: lane k models the predictor state of layout k in a batched
// replay. PredictUpdate performs exactly the operation sequence of
// Hybrid.Predict followed by Hybrid.Update — the equivalence tests pin
// each lane bit-identical to a scalar NewXeonE5440 instance — but with
// no interface dispatch and no redundant component predictions.
type XeonBank struct {
	lanes int
	gas   []counter // [k*xeonGasEntries + idx]
	// The bimodal and chooser tables are indexed by the same hash of the
	// PC, so they are interleaved pairwise — bimcho[2*idx] is the bimodal
	// counter, bimcho[2*idx+1] the chooser — putting both counters a
	// lookup touches on one host cache line.
	bimcho []counter // [k*xeonBimEntries*2 + idx*2 (+1)]
	ghr    []uint64
}

// NewXeonBank builds a bank of lanes Xeon-model predictors in power-on
// state.
func NewXeonBank(lanes int) *XeonBank {
	if lanes <= 0 {
		panic("branch: XeonBank needs at least one lane")
	}
	return &XeonBank{
		lanes:  lanes,
		gas:    make([]counter, lanes*xeonGasEntries),
		bimcho: make([]counter, lanes*xeonBimEntries*2),
		ghr:    make([]uint64, lanes),
	}
}

// Lanes returns the lane count.
func (x *XeonBank) Lanes() int { return x.lanes }

// PredictUpdate returns what lane k's predictor would have predicted for
// the branch at pc and trains it with the resolved outcome, replicating
// scalar Predict-then-Update exactly: the hybrid chooser selects between
// the GAs and bimodal components, the chooser trains when the components
// disagree, and both components always train (the GAs update also shifts
// the lane's global history).
func (x *XeonBank) PredictUpdate(k int, pc uint64, taken bool) bool {
	h := hashPC(pc)
	gi := k*xeonGasEntries + int((h&(1<<xeonGasAddrBits-1))<<xeonGasHistBits|x.ghr[k]&(1<<xeonGasHistBits-1))
	bi := (k*xeonBimEntries + int(h&(xeonBimEntries-1))) * 2
	pa := x.gas[gi].taken()
	pb := x.bimcho[bi].taken()
	var predicted bool
	if x.bimcho[bi+1].taken() {
		predicted = pa
	} else {
		predicted = pb
	}
	if pa != pb {
		x.bimcho[bi+1] = x.bimcho[bi+1].update(pa == taken)
	}
	x.gas[gi] = x.gas[gi].update(taken)
	x.ghr[k] = x.ghr[k]<<1 | boolBit(taken)
	x.bimcho[bi] = x.bimcho[bi].update(taken)
	return predicted
}

// PredictUpdateRow is PredictUpdate across all lanes of one resolved
// branch: pcs[k] is the branch PC in lane k's layout and taken the
// shared outcome. Bit k of the returned mask is set iff lane k
// mispredicted. At most 64 lanes; len(pcs) must not exceed Lanes(). One
// call replaces K dependent calls, letting the CPU overlap the
// independent per-lane table loads.
func (x *XeonBank) PredictUpdateRow(pcs []uint64, taken bool) uint64 {
	var wrong uint64
	bit := boolBit(taken)
	// Hoisted table headers and single loads per counter: stores through
	// the slices would otherwise force the compiler to reload x's fields
	// and re-read each counter cell every iteration.
	gas, bimcho, ghr := x.gas, x.bimcho, x.ghr
	for k := range pcs {
		h := hashPC(pcs[k])
		g := ghr[k]
		gi := k*xeonGasEntries + int((h&(1<<xeonGasAddrBits-1))<<xeonGasHistBits|g&(1<<xeonGasHistBits-1))
		bi := (k*xeonBimEntries + int(h&(xeonBimEntries-1))) * 2
		cg, cb, cc := gas[gi], bimcho[bi], bimcho[bi+1]
		pa := cg.taken()
		pb := cb.taken()
		predicted := pb
		if cc.taken() {
			predicted = pa
		}
		if pa != pb {
			bimcho[bi+1] = cc.update(pa == taken)
		}
		gas[gi] = cg.update(taken)
		ghr[k] = g<<1 | bit
		bimcho[bi] = cb.update(taken)
		if predicted != taken {
			wrong |= 1 << uint(k)
		}
	}
	return wrong
}

// Reset restores every lane to power-on state.
func (x *XeonBank) Reset() {
	for i := range x.gas {
		x.gas[i] = 0
	}
	for i := range x.bimcho {
		x.bimcho[i] = 0
	}
	for k := range x.ghr {
		x.ghr[k] = 0
	}
}

// BTBBank is K independent branch target buffers of identical geometry,
// the SoA counterpart of BTB for batched replay. Like cache.Bank it
// packs the valid bit into the tag word and each set's MRU→LRU way list
// into one uint64 (at most 8 ways), and PredictUpdate replicates
// BTB.Predict's lookup/install/correct sequence exactly.
type BTBBank struct {
	lanes, sets, ways int
	setMask           uint64
	// tags[k*sets*ways + set*ways + w] holds tag<<1|1; 0 means invalid.
	tags               []uint64
	targets            []uint64
	order              []uint64 // [k*sets + set], packed MRU→LRU, MRU in byte 0
	waysMask, identity uint64
}

// NewBTBBank builds a bank of lanes BTBs. It returns an error for
// geometries the packed representation cannot hold (more than 8 ways);
// batched callers fall back to the scalar path.
func NewBTBBank(sets, ways, lanes int) (*BTBBank, error) {
	if sets <= 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("branch: BTB bank sets %d must be a positive power of two", sets)
	}
	if ways <= 0 || ways > 8 {
		return nil, fmt.Errorf("branch: BTB bank supports 1..8 ways, got %d", ways)
	}
	if lanes <= 0 {
		return nil, fmt.Errorf("branch: BTB bank needs at least one lane")
	}
	b := &BTBBank{
		lanes:   lanes,
		sets:    sets,
		ways:    ways,
		setMask: uint64(sets - 1),
		tags:    make([]uint64, lanes*sets*ways),
		targets: make([]uint64, lanes*sets*ways),
		order:   make([]uint64, lanes*sets),
	}
	for w := 0; w < ways; w++ {
		b.identity |= uint64(w) << (8 * w)
	}
	if ways == 8 {
		b.waysMask = ^uint64(0)
	} else {
		b.waysMask = uint64(1)<<(8*ways) - 1
	}
	b.Reset()
	return b, nil
}

// Lanes returns the lane count.
func (b *BTBBank) Lanes() int { return b.lanes }

// PredictUpdate looks up the target for the transfer at pc in lane k,
// then installs or corrects the entry with the actual target, returning
// true when the predicted target matched — bit-identical to BTB.Predict
// on lane k's private BTB.
func (b *BTBBank) PredictUpdate(k int, pc, actual uint64) bool {
	h := hashPC(pc)
	set := int(h & b.setMask)
	want := h/(b.setMask+1)<<1 | 1
	base := (k*b.sets + set) * b.ways
	op := &b.order[k*b.sets+set]
	o := *op
	for i := 0; i < b.ways; i++ {
		w := o >> (8 * i) & 0xff
		if b.tags[base+int(w)] == want {
			low := o & (uint64(1)<<(8*i) - 1)
			*op = o&^(uint64(1)<<(8*(i+1))-1) | low<<8 | w
			if b.targets[base+int(w)] == actual {
				return true
			}
			b.targets[base+int(w)] = actual
			return false
		}
	}
	victim := o >> (8 * (b.ways - 1)) & 0xff
	b.tags[base+int(victim)] = want
	b.targets[base+int(victim)] = actual
	*op = (o<<8 | victim) & b.waysMask
	return false
}

// Reset restores every lane to power-on state.
func (b *BTBBank) Reset() {
	for i := range b.tags {
		b.tags[i] = 0
	}
	for i := range b.order {
		b.order[i] = b.identity
	}
}

// MaxLanes is the most lanes NewLanes builds: a row's miss mask is one
// word.
const MaxLanes = 64

// Lanes is one predictor's state in every code layout of a replay, one
// lane per layout. PredictUpdateRow runs every lane's Predict-then-Update
// step for one resolved branch: pcs[k] is the branch PC in lane k's
// layout, taken the shared outcome, and bit k of the result is set iff
// lane k mispredicted.
type Lanes interface {
	PredictUpdateRow(pcs []uint64, taken bool) uint64
}

// NewLanes builds factory f's predictor for n layouts (1..MaxLanes), or
// nil for an oracle, which mispredicts nothing. The factory's instance is
// lane 0, so nothing is built that the replay does not drive. An LTAGE
// or GAs becomes a bank whose lanes share one outcome history (LTAGEBank,
// GAsBank); any other predictor gets one instance per lane, driven
// through the Predictor interface. Each lane is bit-identical to a
// scalar instance fed that lane's PCs.
func NewLanes(f Factory, n int) (Lanes, error) {
	if n <= 0 || n > MaxLanes {
		return nil, fmt.Errorf("branch: %d lanes, want 1..%d", n, MaxLanes)
	}
	p := f.New()
	switch p := p.(type) {
	case nil:
		return nil, fmt.Errorf("branch: factory %s built no predictor", f.Name)
	case Oracle:
		return nil, nil
	case *LTAGE:
		return newLTAGEBank(p, n), nil
	case *GAs:
		return newGAsBank(p, n), nil
	}
	ps := make(predictorLanes, n)
	ps[0] = p
	for k := 1; k < n; k++ {
		ps[k] = f.New()
	}
	return ps, nil
}

// predictorLanes drives one predictor instance per lane through the
// Predictor interface.
type predictorLanes []Predictor

func (ps predictorLanes) PredictUpdateRow(pcs []uint64, taken bool) uint64 {
	var wrong uint64
	for k, p := range ps {
		if p.Predict(pcs[k]) != taken {
			wrong |= 1 << uint(k)
		}
		p.Update(pcs[k], taken)
	}
	return wrong
}
