package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"

	"inkfuse/internal/rt"
)

// Fingerprint is a canonical 128-bit digest of a query shape. Two plans with
// the same fingerprint have identical suboperator structure — same primitive
// IDs, same dataflow, same state shapes — and differ at most in the values of
// parameterized runtime constants, so they can share compiled artifacts
// (the plancache contract).
type Fingerprint [16]byte

// Hex renders the fingerprint as 32 lowercase hex digits.
func (f Fingerprint) Hex() string { return hex.EncodeToString(f[:]) }

// String implements fmt.Stringer.
func (f Fingerprint) String() string { return f.Hex() }

// Hasher accumulates a canonical encoding into a Fingerprint. Both the
// algebra-tree fingerprint (the plancache key) and FingerprintPlan build on
// it; the encoding tags every field so adjacent writes cannot collide.
type Hasher struct {
	h   hash.Hash
	buf [10]byte
}

// NewHasher creates an empty Hasher.
func NewHasher() *Hasher { return &Hasher{h: sha256.New()} }

// Str writes a length-prefixed string.
func (h *Hasher) Str(s string) {
	h.Int(len(s))
	h.h.Write([]byte(s))
}

// Int writes a varint.
func (h *Hasher) Int(v int) {
	n := binary.PutVarint(h.buf[:], int64(v))
	h.h.Write(h.buf[:n])
}

// Bool writes one byte.
func (h *Hasher) Bool(b bool) {
	if b {
		h.Int(1)
	} else {
		h.Int(0)
	}
}

// Sum finalizes the digest (truncated to 128 bits).
func (h *Hasher) Sum() Fingerprint {
	var f Fingerprint
	copy(f[:], h.h.Sum(nil))
	return f
}

// planHasher numbers IUs and stateful objects densely in first-seen order so
// the encoding is independent of the process-global IU ID counter and of
// pointer values.
type planHasher struct {
	*Hasher
	ius    map[*IU]int
	states map[any]int
}

func (h *planHasher) iu(iu *IU) {
	if iu == nil {
		h.Int(-1)
		return
	}
	id, ok := h.ius[iu]
	if !ok {
		id = len(h.ius)
		h.ius[iu] = id
	}
	h.Int(id)
	h.Int(int(iu.K))
}

// ident densely numbers a shared state object (join/agg tables appear in
// several pipelines; the fingerprint must record which ops share which).
func (h *planHasher) ident(st any) int {
	id, ok := h.states[st]
	if !ok {
		id = len(h.states)
		h.states[st] = id
	}
	return id
}

func (h *planHasher) state(st any) error {
	switch s := st.(type) {
	case nil:
		h.Str("nil")
	case *rt.ConstState:
		// Values are deliberately excluded: a parameter-invariant shape hash.
		h.Str("const")
		h.Int(int(s.Kind))
	case *rt.LikeState:
		h.Str("like")
	case *rt.InListState:
		h.Str("inlist")
	case *rt.OffsetState:
		h.Str("off")
		h.Int(s.Off)
		if s.Layout != nil {
			h.Int(h.ident(s.Layout))
		} else {
			h.Int(-1)
		}
	case *rt.RowLayoutState:
		h.Str("layout")
		h.Int(h.ident(s))
		h.Int(s.KeyFixed)
		h.Int(s.PayloadFixed)
	case *rt.VarSlotState:
		h.Str("slot")
		h.Int(s.FixedWidth)
		h.Int(s.VarIdx)
	case *rt.AggTableState:
		h.Str("agg")
		h.Int(h.ident(s))
		h.Int(len(s.Init))
		h.Int(s.Shards)
		for _, m := range s.Merge {
			h.Int(int(m.Op))
			h.Int(m.Off)
		}
	case *rt.JoinTableState:
		h.Str("join")
		h.Int(h.ident(s))
	default:
		return fmt.Errorf("core: cannot fingerprint state %T", st)
	}
	return nil
}

// FingerprintPlan digests a lowered plan's shape: primitive IDs, dataflow
// over densely renumbered IUs, and state shapes with runtime-constant values
// masked out. Plans lowered from the same parameterized query shape — same
// structure, different literal bindings — hash identically. The plan name is
// excluded.
func FingerprintPlan(p *Plan) (Fingerprint, error) {
	h := &planHasher{Hasher: NewHasher(), ius: make(map[*IU]int), states: make(map[any]int)}
	for _, pipe := range p.Pipelines {
		h.Str("pipeline")
		switch src := pipe.Source.(type) {
		case *TableScan:
			h.Str("tscan")
			h.Str(src.Table.Name)
			for i, c := range src.Cols {
				h.Int(c)
				h.iu(src.IUs[i])
			}
		case *AggRead:
			h.Str("aggread")
			if err := h.state(src.State); err != nil {
				return Fingerprint{}, err
			}
			h.iu(src.Out)
		default:
			return Fingerprint{}, fmt.Errorf("core: cannot fingerprint source %T", pipe.Source)
		}
		for _, op := range pipe.Ops {
			h.Str(fmt.Sprintf("%T", op))
			h.Str(op.PrimitiveID())
			for _, iu := range op.Inputs() {
				h.iu(iu)
			}
			for _, iu := range op.Outputs() {
				h.iu(iu)
			}
			for _, st := range op.States() {
				if err := h.state(st); err != nil {
					return Fingerprint{}, err
				}
			}
		}
		h.Str("result")
		for _, iu := range pipe.Result {
			h.iu(iu)
		}
		h.Str("seal")
		for _, jt := range pipe.SealJoins {
			if err := h.state(jt); err != nil {
				return Fingerprint{}, err
			}
		}
		h.Str("merge")
		for _, fin := range pipe.MergeAggs {
			if err := h.state(fin.State); err != nil {
				return Fingerprint{}, err
			}
			h.Bool(fin.Keyless)
		}
	}
	h.Str("cols")
	for _, c := range p.ColNames {
		h.Str(c)
	}
	if p.Sort != nil {
		h.Str("sort")
		for i, k := range p.Sort.Keys {
			h.Int(k)
			h.Bool(p.Sort.Desc[i])
		}
		h.Int(p.Sort.Limit)
	}
	return h.Sum(), nil
}
