package main

import (
	"fmt"
	"runtime"
	"time"
)

// phase is one end-to-end job the scheduler repeats.
type phase struct {
	run   func() error
	spent time.Duration // total wall time so far
	last  time.Duration
}

func (p *phase) step() error {
	runtime.GC()
	start := time.Now()
	err := p.run()
	p.last = time.Since(start)
	p.spent += p.last
	return err
}

// schedule runs every phase once, then gives the measured time out in
// equal shares: it keeps running the phase with the least total time
// so far until that phase's next run would end past the deadline.
// Memory bandwidth on a shared host drifts over seconds, so each
// metric's median is steadiest when every phase spans the same share
// of the run; short jobs thereby collect more samples than long ones.
func schedule(seconds float64, phases []*phase) error {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for _, p := range phases {
		if err := p.step(); err != nil {
			return err
		}
	}
	for {
		next := phases[0]
		for _, p := range phases[1:] {
			if p.spent < next.spent {
				next = p
			}
		}
		if time.Now().Add(next.last).After(deadline) {
			return nil
		}
		if err := next.step(); err != nil {
			return err
		}
	}
}

// lagTailPct is the verdict-lag tail percentile. Higher ones do not
// repeat from run to run: the highest percentile with ten samples
// beyond it (p99.9 on LBL-1) is set by a handful of scheduler hiccups
// on a shared host, and FULL-TEL's p95 falls in the windows of its
// start-up ramp, whose length varies with the seed.
const lagTailPct = 90.0

// endToEnd measures every end-to-end metric with tracing off.
func (b *bench) endToEnd() error {
	e, ref := b.e, b.ref
	var oneshot2, oneshot1, followR, fleetR, lags []float64
	var followDigest string
	var pacedRuns int
	var last fleetResult

	oneshotAt := func(procs int, rates *[]float64) func() error {
		return func() error {
			r, err := oneshot(e, procs)
			if err != nil {
				return err
			}
			b.ops(r.records, r.skipped)
			b.check(r.digest == ref.oneshot, "one-shot at GOMAXPROCS %d: digest %.12s, serial session %.12s", procs, r.digest, ref.oneshot)
			b.check(r.records == e.records, "one-shot at GOMAXPROCS %d: %d records, corpus has %d", procs, r.records, e.records)
			*rates = append(*rates, r.rate())
			return nil
		}
	}
	phases := []*phase{
		{run: oneshotAt(runtime.GOMAXPROCS(0), &oneshot2)},
		{run: oneshotAt(1, &oneshot1)},
		{run: func() error {
			f, err := follow(e)
			if err != nil {
				return err
			}
			b.ops(f.records, f.skipped)
			b.check(f.records == e.records, "follow: %d records, corpus has %d", f.records, e.records)
			if followDigest == "" {
				followDigest = f.digest
			}
			b.check(f.digest == followDigest, "follow: observatory digest %.12s differs from the first run's %.12s", f.digest, followDigest)
			followR = append(followR, f.rate())
			return nil
		}},
		{run: func() error {
			p, err := paced(e, noStage)
			if err != nil {
				return err
			}
			b.ops(p.records, p.skipped)
			b.check(p.events == ref.events, "paced live run: event digest %.12s, unpaced replay %.12s", p.events, ref.events)
			lags = append(lags, p.lagsMS...)
			pacedRuns++
			return nil
		}},
		{run: func() error {
			fl, err := fleet(e, nil, noStage)
			if err != nil {
				return err
			}
			b.ops(fl.uploads+fl.records, fl.retries+fl.rejects)
			b.check(fl.digest == ref.fleet, "fleet: results digest %.12s, single-process shard ingest %.12s", fl.digest, ref.fleet)
			fleetR = append(fleetR, fl.rate())
			last = fl
			return nil
		}},
	}

	runtime.GC()
	peak := sampleHeapPeak(5 * time.Millisecond)
	err := schedule(b.cfg.seconds, phases)
	peakBytes := peak()
	if err != nil {
		return err
	}
	_, merged, err := last.coord.Merged()
	if err != nil {
		return err
	}
	b.check(merged == ref.fleet, "fleet: Coordinator.Merged digest %.12s, single-process shard ingest %.12s", merged, ref.fleet)

	b.timing("oneshot_records_per_s", "1/s", oneshot2)
	b.timing("oneshot_1p_records_per_s", "1/s", oneshot1)
	b.timing("follow_records_per_s", "1/s", followR)
	b.timing("verdict_lag_p50_ms", "ms", lags)
	lagTail, beyond := percentile(sorted(lags), lagTailPct)
	b.set("verdict_lag_tail_ms", "ms", lagTail)
	fmt.Fprintf(b.out, "%-38s %14.6g %-5s p%g of %d verdicts from %d paced runs, %d beyond it\n",
		"verdict_lag_tail_ms", lagTail, "ms", lagTailPct, len(lags), pacedRuns, beyond)
	b.timing("fleet_records_per_s", "1/s", fleetR)
	b.set("state_bytes", "bytes", float64(ref.stateBytes))
	b.set("peak_heap_mb", "MB", float64(peakBytes)/(1<<20))
	b.set("ok_ratio", "ratio", 1-float64(b.failed)/float64(b.attempted))
	fmt.Fprintf(b.out, "state_bytes %d; peak_heap_mb %.2f; failed_ratio %d/%d\n", ref.stateBytes, float64(peakBytes)/(1<<20), b.failed, b.attempted)
	return nil
}
