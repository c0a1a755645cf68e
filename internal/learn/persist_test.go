package learn

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"ecavs/internal/abr"
	"ecavs/internal/dash"
)

func TestTableSaveLoadRoundTrip(t *testing.T) {
	space := StateSpace{
		BufferBins: 3, BufferMaxSec: 30,
		BandwidthBins: 2, BandwidthMinMbps: 0.5, BandwidthMaxMbps: 50,
		Rungs: 4,
	}
	table, err := NewQTable(space)
	if err != nil {
		t.Fatal(err)
	}
	table.Update(5, 2, 7, 3.5, 0.5, 0.9)
	table.Update(7, 1, 5, -1.0, 0.5, 0.9)

	var buf bytes.Buffer
	if err := table.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.space != space {
		t.Errorf("space mismatch: %+v", got.space)
	}
	a1, v1 := table.Best(5)
	a2, v2 := got.Best(5)
	if a1 != a2 || v1 != v2 {
		t.Errorf("round trip lost values: (%d, %v) vs (%d, %v)", a1, v1, a2, v2)
	}
	if got.CoverageFraction() != table.CoverageFraction() {
		t.Error("round trip lost visit counts")
	}
}

func TestLoadTableRejectsCorrupt(t *testing.T) {
	if _, err := LoadTable(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	// Wrong state count.
	doc := `{"space":{"BufferBins":2,"BufferMaxSec":10,"BandwidthBins":2,"BandwidthMinMbps":1,"BandwidthMaxMbps":10,"Rungs":2},"q":[[0,0]],"seen":null}`
	if _, err := LoadTable(strings.NewReader(doc)); !errors.Is(err, ErrCorruptTable) {
		t.Errorf("err = %v, want ErrCorruptTable", err)
	}
	// Invalid space.
	doc = `{"space":{"BufferBins":0},"q":[],"seen":null}`
	if _, err := LoadTable(strings.NewReader(doc)); err == nil {
		t.Error("invalid space accepted")
	}
}

func TestNewFrozenAgentFromLoadedTable(t *testing.T) {
	ladder := dash.EvalLadder()
	cfg := DefaultTrainConfig(ladder)
	cfg.Episodes = 10 // quick
	trained, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trained.Table().Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := NewFrozenAgent(loaded, 9)
	if err != nil {
		t.Fatal(err)
	}
	if agent.training {
		t.Error("frozen agent still training")
	}
	// Greedy decisions match the trained agent's (same table, same
	// estimator state after identical inputs).
	trained.Reset()
	agent.Reset()
	for i := 0; i < 5; i++ {
		trained.ObserveDownload(20)
		agent.ObserveDownload(20)
	}
	ctx := abr.Context{
		Ladder:             ladder,
		SegmentDurationSec: 2,
		BufferSec:          20,
		BufferThresholdSec: 30,
		PrevRung:           5,
	}
	r1, err := trained.ChooseRung(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := agent.ChooseRung(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Errorf("loaded agent chose %d, trained chose %d", r2, r1)
	}
	if _, err := NewFrozenAgent(nil, 1); err == nil {
		t.Error("nil table accepted")
	}
}
