package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadAll checks the log decoder never panics on arbitrary bytes and
// never accepts input that decodes to out-of-range kinds or ops.
func FuzzReadAll(f *testing.F) {
	// Seed with a real log.
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		f.Fatal(err)
	}
	tw := w.Thread(1)
	tw.Append(Event{Kind: KindWrite, TID: 1, Addr: 7, Mask: 3})
	tw.Append(Event{Kind: KindAcquire, Op: OpLock, TID: 1, Addr: 9, Counter: 4, TS: 1})
	if err := w.Close(Meta{Module: "seed"}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add([]byte("LTRC1\n\xff\xff\xff\xff"))
	// Truncations of the valid log.
	for i := 0; i < len(valid); i += 3 {
		f.Add(valid[:i])
	}
	// Single-byte corruptions.
	for i := 0; i < len(valid); i++ {
		c := append([]byte(nil), valid...)
		c[i] ^= 0x55
		f.Add(c)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, evs := range log.Threads {
			for _, e := range evs {
				if e.Kind >= numKinds {
					t.Fatalf("decoded invalid kind %d", e.Kind)
				}
				if e.Op >= numSyncOps {
					t.Fatalf("decoded invalid op %d", e.Op)
				}
			}
		}
	})
}

// FuzzSalvage checks the salvage decoder never panics and keeps its
// documented guarantees on arbitrary bytes: exact byte accounting, events
// only with in-range kinds and ops, and strict decoding succeeding
// exactly when salvage loses nothing, with the same log.
func FuzzSalvage(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		f.Fatal(err)
	}
	for tid := int32(0); tid < 3; tid++ {
		tw := w.Thread(tid)
		for i := 0; i < 40; i++ {
			tw.Append(Event{Kind: KindWrite, TID: tid, Addr: uint64(i), Mask: 1})
			if i%13 == 0 {
				tw.Append(Event{Kind: KindRelease, Op: OpUnlock, TID: tid, Addr: 9, Counter: 4, TS: uint64(i/13 + 1)})
			}
		}
		tw.Flush()
	}
	if err := w.Close(Meta{Module: "seed"}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add([]byte(magicV1))
	for i := 0; i < len(valid); i += 5 {
		f.Add(valid[:i])
		c := append([]byte(nil), valid...)
		c[i] ^= 0x55
		f.Add(c)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		log, rep, err := Salvage(bytes.NewReader(data))
		if err != nil {
			return // not a LiteRace log at all
		}
		if rep.MagicBytes+rep.BytesOK+rep.BytesDropped != rep.TotalBytes {
			t.Fatalf("byte accounting: magic %d + ok %d + dropped %d != total %d",
				rep.MagicBytes, rep.BytesOK, rep.BytesDropped, rep.TotalBytes)
		}
		n := 0
		for _, evs := range log.Threads {
			n += len(evs)
			for _, e := range evs {
				if e.Kind >= numKinds {
					t.Fatalf("salvaged invalid kind %d", e.Kind)
				}
				if e.Op >= numSyncOps {
					t.Fatalf("salvaged invalid op %d", e.Op)
				}
			}
		}
		if n != rep.EventsSalvaged {
			t.Fatalf("EventsSalvaged = %d, log holds %d", rep.EventsSalvaged, n)
		}
		// Strict decoding accepts exactly the logs salvage recovers without
		// loss, and then returns the same log.
		strict, serr := ReadAll(bytes.NewReader(data))
		if (serr == nil) == rep.Lossy() {
			t.Fatalf("ReadAll err %v, salvage %s", serr, rep.Summary())
		}
		if serr == nil {
			if !reflect.DeepEqual(strict.Threads, log.Threads) {
				t.Fatalf("strict and salvage decodes hold different events")
			}
			if !reflect.DeepEqual(strict.ChunkOrder, log.ChunkOrder) {
				t.Fatalf("strict chunk order %v, salvage %v", strict.ChunkOrder, log.ChunkOrder)
			}
			if !reflect.DeepEqual(strict.Meta, log.Meta) {
				t.Fatalf("strict meta %+v, salvage %+v", strict.Meta, log.Meta)
			}
		}
	})
}
