package main

import (
	"bytes"
	"fmt"
	"sort"

	"literace"
	"literace/internal/hb"
	"literace/internal/lir"
	"literace/internal/race"
	"literace/internal/trace"
)

// input is one encoded log with the race list every detector must
// report for it.
type input struct {
	name   string
	data   []byte
	events int64
	want   oracle
}

// newInput decodes data and computes its reference race list with the
// textbook vector-clock detector (hb.DetectReference).
func newInput(name string, data []byte) (*input, error) {
	log, err := trace.ReadAll(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("%s: decoding: %w", name, err)
	}
	want, err := oracleOf(log)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &input{name: name, data: data, events: int64(log.NumEvents()), want: want}, nil
}

// expectedRace is one static race as literace.Detect renders it with no
// name resolver.
type expectedRace struct {
	first, second string
	count, ww, rw uint64
}

type oracle []expectedRace

func oracleOf(log *trace.Log) (oracle, error) {
	res, err := hb.DetectReference(log, hb.Options{SamplerBit: hb.AllEvents})
	if err != nil {
		return nil, fmt.Errorf("reference detection: %w", err)
	}
	set := race.NewSet()
	set.AddResult(res)
	name := func(pc lir.PC) string { return fmt.Sprintf("fn%d:%d", pc.Func, pc.Index) }
	var o oracle
	for _, st := range set.Races() {
		o = append(o, expectedRace{first: name(st.Key.A), second: name(st.Key.B), count: st.Count, ww: st.WriteWrite, rw: st.ReadWrite})
	}
	sort.Slice(o, func(i, j int) bool {
		if o[i].first != o[j].first {
			return o[i].first < o[j].first
		}
		return o[i].second < o[j].second
	})
	return o, nil
}

// match requires rep to list exactly the oracle's races, all confirmed,
// with the same dynamic counts.
func (o oracle) match(what string, rep *literace.Report) error {
	if len(rep.Races) != len(o) {
		return fmt.Errorf("%s: %d static races, reference has %d", what, len(rep.Races), len(o))
	}
	for i, r := range rep.Races {
		w := o[i]
		if r.First != w.first || r.Second != w.second || r.Count != w.count ||
			r.WriteWrite != w.ww || r.ReadWrite != w.rw || r.Unconfirmed {
			return fmt.Errorf("%s: race %d is %s<->%s count=%d (ww=%d rw=%d unconfirmed=%v), reference %s<->%s count=%d (ww=%d rw=%d)",
				what, i, r.First, r.Second, r.Count, r.WriteWrite, r.ReadWrite, r.Unconfirmed,
				w.first, w.second, w.count, w.ww, w.rw)
		}
	}
	return nil
}
