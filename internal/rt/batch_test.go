package rt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// Differential tests: the batched kernels must be observationally identical
// to the scalar entry points — byte-identical table snapshots (a chunk is
// resolved in row order), identical match iteration, and identical
// memory-budget behaviour (the cumulative charges are equal, so a budget that
// fails one path fails the other).

// deriveKeys expands fuzz bytes into a key set: key i is a 1/4/8/12-byte
// little-endian encoding of a value drawn from a small domain (forcing
// duplicates and shard collisions).
func deriveKeys(data []byte, n int, domain uint64, width int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		v := uint64(17)
		if len(data) > 0 {
			v = uint64(data[i%len(data)])<<8 | uint64(data[(i*7+3)%len(data)])
		}
		v = (v + uint64(i)*2654435761) % domain
		b := make([]byte, width)
		switch width {
		case 1:
			b[0] = byte(v)
		case 4:
			binary.LittleEndian.PutUint32(b, uint32(v))
		default:
			binary.LittleEndian.PutUint64(b, v)
			for w := 8; w < width; w++ {
				b[w] = byte(v >> (w % 8))
			}
		}
		keys[i] = b
	}
	return keys
}

// Snapshot returns a copy of the table's group rows in entry order.
func (t *AggTable) Snapshot() [][]byte { return slices.Clone(t.rows) }

func snapshotsEqual(t *testing.T, name string, a, b *AggTable) {
	t.Helper()
	sa, sb := a.Snapshot(), b.Snapshot()
	if len(sa) != len(sb) {
		t.Fatalf("%s: scalar has %d groups, batched %d", name, len(sa), len(sb))
	}
	for i := range sa {
		if !bytes.Equal(sa[i], sb[i]) {
			t.Fatalf("%s: group row %d differs:\n scalar  %x\n batched %x", name, i, sa[i], sb[i])
		}
	}
}

// runAggBoth builds one table scalar and one batched from the same key
// stream (chunked), returning whether each path hit the memory budget.
func runAggBoth(keys [][]byte, init []byte, chunk int, budgetBytes int64) (scalar, batched *AggTable, sErr, bErr error) {
	run := func(batch bool) (tbl *AggTable, err error) {
		defer func() {
			if rec := recover(); rec != nil {
				if be, ok := rec.(*BudgetExceeded); ok {
					err = be
					return
				}
				panic(rec)
			}
		}()
		tbl = NewAggTable(init, 0)
		if budgetBytes > 0 {
			tbl.SetBudget(NewMemBudget(budgetBytes))
		}
		var hashes []uint64
		dst := make([][]byte, chunk)
		for at := 0; at < len(keys); at += chunk {
			ck := keys[at:min(at+chunk, len(keys))]
			if batch {
				hashes = HashBatch(ck, hashes)
				tbl.FindOrCreateBatch(ck, nil, hashes, dst[:len(ck)], nil)
			} else {
				for _, k := range ck {
					tbl.FindOrCreate(k, Hash64(k))
				}
			}
		}
		return tbl, nil
	}
	scalar, sErr = run(false)
	batched, bErr = run(true)
	return
}

func FuzzAggBatchDifferential(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint16(64), uint8(8), false)
	f.Add([]byte{0xff, 0x10}, uint16(1000), uint8(4), false)
	f.Add([]byte{7}, uint16(300), uint8(1), false)
	f.Add([]byte{9, 9, 9, 1}, uint16(2048), uint8(12), true)
	f.Add([]byte{}, uint16(100), uint8(8), true)
	f.Fuzz(func(t *testing.T, data []byte, nKeys uint16, widthRaw uint8, budgeted bool) {
		n := int(nKeys)%4096 + 1
		width := []int{1, 4, 8, 12}[int(widthRaw)%4]
		domain := uint64(n)/3 + 1
		keys := deriveKeys(data, n, domain, width)
		init := []byte{0, 0, 0, 0, 0, 0, 0, 0}
		var budget int64
		if budgeted {
			// Tight enough to trip mid-stream on larger runs.
			budget = int64(n) * 8
		}
		scalar, batched, sErr, bErr := runAggBoth(keys, init, 256, budget)
		if (sErr == nil) != (bErr == nil) {
			t.Fatalf("budget divergence: scalar err=%v batched err=%v", sErr, bErr)
		}
		if sErr != nil {
			return // both tripped the budget; partial contents are unspecified
		}
		snapshotsEqual(t, fmt.Sprintf("n=%d width=%d", n, width), scalar, batched)
	})
}

// wordSchedules are the key widths of FuzzAggBatchWordDifferential's builds,
// phase after phase: one width throughout (0 is the keyless nil key), or a
// width that changes mid-build, and changes back.
var wordSchedules = [][]int{{1}, {4}, {8}, {0}, {4, 8}, {8, 4}, {1, 4, 8}, {0, 8}, {4, 8, 4}, {8, 1, 8}}

// FuzzAggBatchWordDifferential pushes the same key stream through the word
// entry point (FindOrCreateWord, the fused programs' path) and through
// HashBatch-style FindOrCreateBatch (the interpreter's), one table per half of
// the stream, and merges the second half's table into the first's. Both paths
// must give byte-identical Snapshot rows in the same order, before and after
// MergeInto, and both must match a reference: each distinct key blob a group,
// in order of first appearance, counting its occurrences.
//
// With collide set, every key is hashed as the 8-byte word of its value,
// whatever its width: keys of one width still hash injectively — the premise
// of comparing hashes alone — while equal values of different widths share a
// hash. A table whose width changed mid-build must then compare bytes; one
// that trusted the hash would merge them.
func FuzzAggBatchWordDifferential(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint16(700), uint8(1), false)
	f.Add([]byte{7}, uint16(300), uint8(0), true)
	f.Add([]byte{0xff, 0x10}, uint16(2000), uint8(2), false)
	f.Add([]byte{}, uint16(50), uint8(3), true)
	f.Add([]byte{9, 9, 9, 1}, uint16(1500), uint8(4), true)
	f.Add([]byte{5, 4}, uint16(900), uint8(5), true)
	f.Add([]byte{200, 3, 77}, uint16(1200), uint8(6), true)
	f.Add([]byte{42}, uint16(400), uint8(7), true)
	f.Add([]byte{3, 1}, uint16(1800), uint8(8), true)
	f.Add([]byte{8}, uint16(1100), uint8(9), true)
	f.Fuzz(func(t *testing.T, data []byte, nKeys uint16, schedRaw uint8, collide bool) {
		n := int(nKeys)%4096 + 1
		sched := wordSchedules[int(schedRaw)%len(wordSchedules)]
		type wordKey struct {
			w     uint64
			width int
			h     uint64
		}
		keys := make([]wordKey, n)
		for i, b := range deriveKeys(data, n, uint64(n)/3+1, 8) {
			width := sched[i*len(sched)/n]
			w := binary.LittleEndian.Uint64(b) & (1<<(8*width) - 1)
			h := Hash64(binary.LittleEndian.AppendUint64(nil, w)[:width])
			if collide {
				h = HashWord(w, 8)
			}
			keys[i] = wordKey{w, width, h}
		}
		st := &AggTableState{Init: make([]byte, 8), Merge: []AggMerge{{Op: MergeSumI64, Off: 0}}}
		seed := []byte{0xAB, 0xCD}
		count := func(row []byte) {
			off := RowPayloadOff(row)
			PutI64(row, off, GetI64(row, off)+1)
		}
		build := func(part []wordKey, words bool) *AggTable {
			tbl := st.NewInstance()
			blobs := make([][]byte, 0, 256)
			hashes := make([]uint64, 0, 256)
			seeds := make([][]byte, 256)
			dst := make([][]byte, 256)
			for i := range seeds {
				seeds[i] = seed
			}
			for at := 0; at < len(part); at += 256 {
				chunk := part[at:min(at+256, len(part))]
				if words {
					for _, k := range chunk {
						count(tbl.FindOrCreateWord(k.w, k.width, k.h, seed))
					}
					continue
				}
				blobs, hashes = blobs[:0], hashes[:0]
				for _, k := range chunk {
					blobs = append(blobs, binary.LittleEndian.AppendUint64(nil, k.w)[:k.width])
					hashes = append(hashes, k.h)
				}
				tbl.FindOrCreateBatch(blobs, seeds[:len(chunk)], hashes, dst[:len(chunk)], nil)
				for _, row := range dst[:len(chunk)] {
					count(row)
				}
			}
			return tbl
		}
		name := fmt.Sprintf("n=%d widths=%v collide=%v", n, sched, collide)
		half := n / 2
		wa, wb := build(keys[:half], true), build(keys[half:], true)
		ba, bb := build(keys[:half], false), build(keys[half:], false)
		snapshotsEqual(t, name+" first half", ba, wa)
		snapshotsEqual(t, name+" second half", bb, wb)
		st.MergeInto(wa, wb)
		st.MergeInto(ba, bb)
		snapshotsEqual(t, name+" merged", ba, wa)

		var order []string
		counts := map[string]int64{}
		for _, k := range keys {
			blob := string(binary.LittleEndian.AppendUint64(nil, k.w)[:k.width])
			if _, ok := counts[blob]; !ok {
				order = append(order, blob)
			}
			counts[blob]++
		}
		rows := wa.Snapshot()
		if len(rows) != len(order) {
			t.Fatalf("%s: %d groups, want %d", name, len(rows), len(order))
		}
		for i, row := range rows {
			po := RowPayloadOff(row)
			if got := string(RowKey(row)); got != order[i] || GetI64(row, po) != counts[got] || !bytes.Equal(row[po+8:], seed) {
				t.Fatalf("%s: group %d is key %x count %d seed %x, want key %x count %d seed %x",
					name, i, got, GetI64(row, po), row[po+8:], order[i], counts[order[i]], seed)
			}
		}
	})
}

// FuzzAggBatchSeedsAndLocal drives the seeded variant (collation-style
// creation extras) plus the thread-local pre-aggregation table, checking the
// merged outcome against a scalar build with per-key payload folds.
func FuzzAggBatchSeedsAndLocal(f *testing.F) {
	f.Add([]byte{5, 1}, uint16(128), uint8(2))
	f.Add([]byte{200, 3, 77}, uint16(900), uint8(5))
	f.Add([]byte{}, uint16(64), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, nKeys uint16, shardsRaw uint8) {
		n := int(nKeys)%2048 + 1
		shards := 1 << (int(shardsRaw) % 5)
		keys := deriveKeys(data, n, uint64(n)/4+1, 8)
		st := &AggTableState{
			Init:   make([]byte, 8),
			Shards: shards,
			Merge:  []AggMerge{{Op: MergeSumI64, Off: 0}},
		}
		seed := []byte{0xAB, 0xCD} // creation extra carried beyond Init

		// Scalar reference: count occurrences per key directly.
		ref := st.NewInstance()
		for _, k := range keys {
			row := ref.FindOrCreateSeed(k, Hash64(k), seed)
			off := RowPayloadOff(row)
			PutI64(row, off, GetI64(row, off)+1)
		}

		// Local+batched path: local table absorbs, flushes every 256 keys.
		backing := st.NewInstance()
		loc := NewLocalAggTable(st, backing)
		var hashes []uint64
		for at := 0; at < len(keys); at += 256 {
			ck := keys[at:min(at+256, len(keys))]
			hashes = HashBatch(ck, hashes)
			var pendK [][]byte
			var pendH []uint64
			for i, k := range ck {
				row, _, ok := loc.FindOrCreate(k, hashes[i], seed)
				if !ok {
					pendK = append(pendK, k)
					pendH = append(pendH, hashes[i])
					continue
				}
				off := RowPayloadOff(row)
				PutI64(row, off, GetI64(row, off)+1)
			}
			if len(pendK) > 0 {
				pendD := make([][]byte, len(pendK))
				seeds := make([][]byte, len(pendK))
				for i := range seeds {
					seeds[i] = seed
				}
				backing.FindOrCreateBatch(pendK, seeds, pendH, pendD, nil)
				for _, row := range pendD {
					off := RowPayloadOff(row)
					PutI64(row, off, GetI64(row, off)+1)
				}
			}
			loc.Flush()
		}
		loc.Flush()

		if ref.Groups() != backing.Groups() {
			t.Fatalf("groups: ref=%d local+batched=%d", ref.Groups(), backing.Groups())
		}
		// Compare per-key counts and seeds (order differs: local flush order
		// is local-creation order, not stream order).
		want := map[string]int64{}
		for _, row := range ref.Snapshot() {
			want[string(RowKey(row))] = GetI64(row, RowPayloadOff(row))
		}
		for _, row := range backing.Snapshot() {
			k := string(RowKey(row))
			got := GetI64(row, RowPayloadOff(row))
			if want[k] != got {
				t.Fatalf("key %x: count ref=%d got=%d", k, want[k], got)
			}
			po := RowPayloadOff(row)
			if !bytes.Equal(row[po+8:], seed) {
				t.Fatalf("key %x: seed lost: %x", k, row[po+8:])
			}
		}
	})
}

// FuzzJoinBatchDifferential builds a join table chunk by chunk and checks it
// against an ordered reference model — per key its payloads, newest first —
// over keys of one width (word or wider) or of two widths mixed in one build:
// every probe's matches, the bloom filter (no false negatives, and
// LookupBatch partitions the probes). It then deals the build's chunks over
// 1–4 worker tables, as a pipeline's workers take them, and requires the
// first table, having adopted the others, to seal to what one table holding
// the rows in adoption order seals to, byte for byte.
func FuzzJoinBatchDifferential(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint16(64), uint8(4), uint16(32))
	f.Add([]byte{0x42}, uint16(777), uint8(1), uint16(500))
	f.Add([]byte{}, uint16(256), uint8(16), uint16(1))
	f.Add([]byte{8, 8, 8}, uint16(1500), uint8(3), uint16(2000))
	// nBuild's top bits pick the key width (8, 4, 12, 1 bytes), shardsRaw's
	// high bit mixes 4-byte keys into the build: a seed for each width and
	// for mixed builds of 8-, 12- and 1-byte keys.
	f.Add([]byte{5, 6}, uint16(2048+300), uint8(2), uint16(400))
	f.Add([]byte{7}, uint16(4096+300), uint8(3), uint16(300))
	f.Add([]byte{9, 1}, uint16(6144+50), uint8(1), uint16(100))
	f.Add([]byte{2, 7, 1}, uint16(900), uint8(0x84), uint16(600))
	f.Add([]byte{4, 4}, uint16(4096+500), uint8(0x82), uint16(700))
	f.Add([]byte{3}, uint16(6144+50), uint8(0x81), uint16(200))
	// nProbe's top bits pick how many worker tables the build is dealt over
	// (1–4; the second of four stays empty). In a mixed build the 4-byte keys
	// go to the last table: tables whose key widths differ meet at the seal.
	f.Add([]byte{1, 2, 3}, uint16(64), uint8(4), uint16(2048+32))
	f.Add([]byte{8, 8, 8}, uint16(1500), uint8(3), uint16(4096+500))
	f.Add([]byte{5, 6}, uint16(2048+300), uint8(2), uint16(6144+400))
	f.Add([]byte{2, 7, 1}, uint16(900), uint8(0x84), uint16(2048+600))
	f.Add([]byte{4, 4}, uint16(4096+500), uint8(0x82), uint16(6144+700))
	f.Add([]byte{}, uint16(10), uint8(5), uint16(6144+1))
	f.Fuzz(func(t *testing.T, data []byte, nBuild uint16, shardsRaw uint8, nProbe uint16) {
		nb := int(nBuild)%2048 + 1
		np := int(nProbe)%2048 + 1
		shards := 1 << (int(shardsRaw) % 6)
		width := []int{8, 4, 12, 1}[int(nBuild>>11)%4]
		mixed := shardsRaw&0x80 != 0
		buildKeys := deriveKeys(data, nb, uint64(nb)/2+1, width)
		// Probe keys from a wider domain so many miss (exercising the filter).
		probeKeys := deriveKeys(data, np, uint64(nb)*4+7, width)
		if mixed {
			// Every seventh build key 4 bytes wide: shards of mixed widths.
			short := deriveKeys(data, nb, uint64(nb)/2+1, 4)
			for i := 0; i < nb; i += 7 {
				buildKeys[i] = short[i]
			}
			probeKeys = append(probeKeys, short...)
		}
		payloads := make([][]byte, nb)
		model := joinModel{}
		for i, k := range buildKeys {
			payloads[i] = []byte{byte(i), byte(i >> 8)}
			model.add(k, payloads[i])
		}
		tbl := NewJoinTable(shards)
		insertJoinRows(tbl, buildKeys, payloads, 256)
		tbl.Seal()
		checkJoinModel(t, tbl, model)

		probeHashes := HashBatch(probeKeys, nil)
		sel, skips := tbl.LookupBatch(probeHashes, nil)
		if len(sel)+skips != len(probeKeys) {
			t.Fatalf("filter partition: %d pass + %d skip != %d probes", len(sel), skips, len(probeKeys))
		}
		passSet := make(map[int]bool, len(sel))
		for _, i := range sel {
			passSet[int(i)] = true
		}
		for i, k := range probeKeys {
			want := len(model[string(k)])
			if got := len(matchesOf(tbl, k, probeHashes[i])); got != want {
				t.Fatalf("probe %d: %d matches, model %d", i, got, want)
			}
			if want > 0 && !passSet[i] {
				t.Fatalf("probe %d: bloom filter dropped a real match", i)
			}
		}

		// Deal the chunks over the worker tables; list each table's rows.
		nParts := int(nProbe>>11)%4 + 1
		live := []int{0, 1, 2, 3}[:nParts]
		if nParts == 4 {
			live = []int{0, 2, 3}
		}
		chunk := int(shardsRaw)%97 + 1
		partRows := make([][]int, nParts)
		for lo := 0; lo < nb; lo += chunk {
			p := live[lo/chunk%len(live)]
			for i := lo; i < min(lo+chunk, nb); i++ {
				q := p
				if mixed && nParts > 1 && len(buildKeys[i]) != width {
					q = nParts - 1
				}
				partRows[q] = append(partRows[q], i)
			}
		}
		var dealt *JoinTable
		single := NewJoinTable(shards)
		for _, rows := range partRows {
			keys, pays := make([][]byte, len(rows)), make([][]byte, len(rows))
			for j, i := range rows {
				keys[j], pays[j] = buildKeys[i], payloads[i]
			}
			part := NewJoinTable(shards)
			insertJoinRows(part, keys, pays, chunk)
			if dealt == nil {
				dealt = part
			} else {
				dealt.Adopt(part)
			}
			insertJoinRows(single, keys, pays, 256)
		}
		dealt.Seal()
		single.Seal()
		if dealt.Rows() != nb {
			t.Fatalf("%d worker tables seal %d rows, want %d", nParts, dealt.Rows(), nb)
		}
		for i, k := range append(probeKeys, buildKeys...) {
			h := Hash64(k)
			got, want := matchesOf(dealt, k, h), matchesOf(single, k, h)
			if len(got) != len(want) {
				t.Fatalf("probe %d: %d matches over %d worker tables, %d in one", i, len(got), nParts, len(want))
			}
			for j := range got {
				if !bytes.Equal(got[j], want[j]) {
					t.Fatalf("probe %d match %d: %x over %d worker tables, %x in one", i, j, got[j], nParts, want[j])
				}
			}
			if dealt.Touch(h) != single.Touch(h) {
				t.Fatalf("probe %d: Touch divergence", i)
			}
		}
	})
}

// TestAggBatchBudgetMidBatch pins the mid-batch budget behaviour: a budget
// that trips inside FindOrCreateBatch fails the scalar path at the same
// cumulative total, and leaves the table readable.
func TestAggBatchBudgetMidBatch(t *testing.T) {
	keys := deriveKeys([]byte{3, 1, 4}, 1024, 1024, 8) // all distinct-ish
	_, _, sErr, bErr := runAggBoth(keys, make([]byte, 16), 128, 4096)
	if sErr == nil || bErr == nil {
		t.Fatalf("want both paths to trip the budget, scalar=%v batched=%v", sErr, bErr)
	}
	// After a batched budget panic the table must not be wedged.
	tbl := NewAggTable(make([]byte, 16), 8)
	func() {
		defer func() { recover() }()
		tbl.SetBudget(NewMemBudget(600))
		hashes := HashBatch(keys, nil)
		dst := make([][]byte, len(keys))
		tbl.FindOrCreateBatch(keys, nil, hashes, dst, nil)
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		k := []byte{9, 9, 9, 9, 9, 9, 9, 9}
		tbl2 := NewAggTable(make([]byte, 16), 8) // fresh table, shared nothing
		tbl2.FindOrCreate(k, Hash64(k))
		// And the tripped table itself must not deadlock on reads.
		_ = tbl.Groups()
	}()
	<-done
}

// TestLocalAggAdaptiveDisable checks the hit-ratio policy: a high-cardinality
// stream (every key unique) disables the local table after the warm-up; a
// low-cardinality stream keeps it enabled.
func TestLocalAggAdaptiveDisable(t *testing.T) {
	st := &AggTableState{Init: make([]byte, 8), Shards: 4,
		Merge: []AggMerge{{Op: MergeSumI64, Off: 0}}}

	uniq := NewLocalAggTable(st, st.NewInstance())
	rng := rand.New(rand.NewSource(42))
	var k [8]byte
	for m := 0; m < 8 && !uniq.Disabled(); m++ {
		for i := 0; i < 2048; i++ {
			binary.LittleEndian.PutUint64(k[:], rng.Uint64())
			uniq.FindOrCreate(k[:], Hash64(k[:]), nil)
		}
		uniq.Flush()
	}
	if !uniq.Disabled() {
		t.Fatal("unique-key stream did not disable the local table")
	}

	hot := NewLocalAggTable(st, st.NewInstance())
	for m := 0; m < 8; m++ {
		for i := 0; i < 2048; i++ {
			binary.LittleEndian.PutUint64(k[:], uint64(i%4)) // Q1-style: 4 groups
			row, _, ok := hot.FindOrCreate(k[:], Hash64(k[:]), nil)
			if !ok {
				t.Fatal("local table rejected a 4-group stream")
			}
			PutI64(row, RowPayloadOff(row), GetI64(row, RowPayloadOff(row))+1)
		}
		hot.Flush()
	}
	if hot.Disabled() {
		t.Fatal("4-group stream disabled the local table")
	}
	if hot.Hits() == 0 {
		t.Fatal("no local hits on a 4-group stream")
	}
	// All updates must have reached the backing table via the flushes.
	var total int64
	for _, row := range hot.backing.Snapshot() {
		total += GetI64(row, RowPayloadOff(row))
	}
	if total != 8*2048 {
		t.Fatalf("backing total = %d, want %d", total, 8*2048)
	}
}

// TestLocalAggMaybeFlush checks the between-chunk policy: a clustered stream
// (duplicates adjacent, far more groups than local capacity) keeps the table
// enabled through repeated drains, while a non-repeating stream is disabled
// by MaybeFlush itself — mid-morsel, without waiting for Flush.
func TestLocalAggMaybeFlush(t *testing.T) {
	st := &AggTableState{Init: make([]byte, 8), Shards: 4,
		Merge: []AggMerge{{Op: MergeSumI64, Off: 0}}}

	// Clustered: 4x localAggGroups distinct keys, 8 adjacent duplicates each,
	// MaybeFlush consulted every 1024 "rows" (one chunk).
	clus := NewLocalAggTable(st, st.NewInstance())
	var k [8]byte
	var spills int64
	probes := 0
	for g := 0; g < 4*localAggGroups; g++ {
		binary.LittleEndian.PutUint64(k[:], uint64(g))
		h := Hash64(k[:])
		for d := 0; d < 8; d++ {
			if probes%1024 == 0 {
				spills += clus.MaybeFlush()
			}
			probes++
			if row, _, ok := clus.FindOrCreate(k[:], h, nil); ok {
				PutI64(row, RowPayloadOff(row), GetI64(row, RowPayloadOff(row))+1)
			}
		}
	}
	if clus.Disabled() {
		t.Fatal("clustered stream disabled the local table")
	}
	if spills < 2*localAggGroups {
		t.Fatalf("clustered stream spilled only %d rows across drains", spills)
	}
	spills += clus.Flush()
	var total int64
	for _, row := range clus.backing.Snapshot() {
		total += GetI64(row, RowPayloadOff(row))
	}
	// Every locally-absorbed update must have reached the backing table.
	if want := clus.Hits() + spills; total != want {
		t.Fatalf("backing total = %d, want hits+creates = %d", total, want)
	}

	// Non-repeating: every key unique. MaybeFlush must disable once the
	// warm-up probes accumulate, before any morsel-end Flush.
	uniq := NewLocalAggTable(st, st.NewInstance())
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4*localAggMinProbes; i++ {
		if i%1024 == 0 {
			uniq.MaybeFlush()
		}
		binary.LittleEndian.PutUint64(k[:], rng.Uint64())
		uniq.FindOrCreate(k[:], Hash64(k[:]), nil)
	}
	if !uniq.Disabled() {
		t.Fatal("non-repeating stream was not disabled between chunks")
	}
}
