package stream

// WindowCounter is the Appendix-A arrival-window view of a count
// series: per-window event counts at a fixed width, the streaming form
// of the count processes behind the paper's Poisson tests. The
// methodology tests arrival counts per fixed interval for the index of
// dispersion and serial independence a Poisson process would show.
// Sketch.Arrivals computes one from the sketch's AggVar bins; it is a
// read-only value, never observed into or merged.
type WindowCounter struct {
	width  float64
	counts []int64
	early  int64 // events before t=0 (or past a pinned horizon)
	late   int64 // events beyond the series' MaxWindows cap
	total  int64
}

// Count returns the number of events observed.
func (w *WindowCounter) Count() int64 { return w.total }

// Width returns the window width in seconds.
func (w *WindowCounter) Width() float64 { return w.width }

// Windows returns the number of windows spanned.
func (w *WindowCounter) Windows() int { return len(w.counts) }

// Overflow returns the count of events beyond the MaxWindows cap.
func (w *WindowCounter) Overflow() int64 { return w.late }

// Counts returns the per-window counts as float64s, the form the
// batch statistics (stats.Mean, stats.Variance, stats.Autocorrelation)
// consume.
func (w *WindowCounter) Counts() []float64 { return floats(w.counts) }

// floats converts exact integer counts to the float64s the batch
// statistics consume.
func floats(counts []int64) []float64 {
	out := make([]float64, len(counts))
	for i, c := range counts {
		out[i] = float64(c)
	}
	return out
}

// Rate returns the mean event rate per second over the spanned
// windows.
func (w *WindowCounter) Rate() float64 {
	if len(w.counts) == 0 {
		return 0
	}
	return float64(w.total-w.early-w.late) / (float64(len(w.counts)) * w.width)
}

// Dispersion returns the index of dispersion (variance/mean) of the
// per-window counts — 1 for a Poisson process, greater under the
// burstiness the paper documents.
func (w *WindowCounter) Dispersion() float64 {
	n := len(w.counts)
	if n == 0 {
		return 0
	}
	var sum int64
	for _, c := range w.counts {
		sum += c
	}
	mean := float64(sum) / float64(n)
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, c := range w.counts {
		d := float64(c) - mean
		ss += d * d
	}
	return ss / float64(n) / mean
}

// Lag1 returns the lag-1 autocorrelation of the per-window counts,
// the serial-independence side of the Appendix A test.
func (w *WindowCounter) Lag1() float64 {
	n := len(w.counts)
	if n < 3 {
		return 0
	}
	var sum int64
	for _, c := range w.counts {
		sum += c
	}
	mean := float64(sum) / float64(n)
	var num, den float64
	for i, c := range w.counts {
		d := float64(c) - mean
		den += d * d
		if i+1 < n {
			num += d * (float64(w.counts[i+1]) - mean)
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// State serializes the windows deterministically, in the series
// section form of a sketch state with no horizon (DESIGN.md §10).
func (w *WindowCounter) State() ([]byte, error) {
	return appendSeries(nil, w.width, 0, w.early, w.late, w.total, w.counts), nil
}
