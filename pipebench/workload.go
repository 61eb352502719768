package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"

	"wantraffic/internal/load"
	"wantraffic/internal/stream"
	"wantraffic/internal/trace"
)

// workload is one benchmark input: the scenario the generator runs and
// the prefix the paced live phase replays, with its dilation.
type workload struct {
	name     string
	scenario func() (*load.Scenario, error)
	scale    float64 // load.Options.Scale: rate multiplier
	duration float64 // load.Options.Duration: horizon override (0 keeps the scenario's)
	// slice is the trace-second prefix the paced live phase generates
	// and dilate its fixed dilation (trace seconds per wall second).
	slice, dilate float64
}

// fleetShards is the fleet size: two workers, one shard file each.
const fleetShards = 2

func lbl1Scenario() (*load.Scenario, error) { return load.Preset("LBL-1", 256) }

func fulltelScenario() (*load.Scenario, error) {
	sc := &load.Scenario{
		Name: "fulltel-1h", Kind: load.KindPacket, Horizon: 3600,
		Sources: []load.SourceSpec{{
			Name: "fulltel", Proto: "TELNET", Pattern: load.PatternFullTel,
			Users: 1024, Rate: 4,
		}},
	}
	return sc, sc.Validate()
}

// workloads are the named benchmark inputs; BENCHMARK.json and
// NOTES.md say why each was chosen.
var workloads = []workload{
	{name: "lbl1-10d", scenario: lbl1Scenario, scale: 20, slice: 86400, dilate: 36000},
	{name: "fulltel-1h", scenario: fulltelScenario, slice: 900, dilate: 250},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// newDaemon builds the workload's generator; duration overrides the
// horizon when positive, dilate 0 runs at full speed.
func (w workload) newDaemon(seed int64, dilate, duration float64) (*load.Daemon, error) {
	sc, err := w.scenario()
	if err != nil {
		return nil, err
	}
	if duration <= 0 {
		duration = w.duration
	}
	return load.New(sc, load.Options{Seed: seed, Dilate: dilate, Duration: duration, Scale: w.scale, Binary: true})
}

// env is one set-up workload: the in-memory corpus and paced-phase
// slice, the fleet's shard files and the loopback coordinator server.
type env struct {
	w       workload
	seed    int64
	kind    string // stream.ConnSketch or stream.PacketSketch
	corpus  []byte
	records int64
	slice   []byte
	sliceT0 float64 // first record time of the slice
	shards  []string
	srv     *fleetServer
}

// setup generates the inputs and starts the coordinator server.
func setup(w workload, seed int64, dir string) (*env, error) {
	e := &env{w: w, seed: seed}
	var buf bytes.Buffer
	rep, err := generate(w, seed, 0, 0, &buf)
	if err != nil {
		return nil, err
	}
	e.corpus, e.records = buf.Bytes(), rep.Records
	e.kind = stream.ConnSketch
	if sc, _ := w.scenario(); sc.Kind == load.KindPacket {
		e.kind = stream.PacketSketch
	}

	e.slice = e.corpus
	if w.slice < rep.TraceSeconds {
		var sl bytes.Buffer
		if _, err := generate(w, seed, 0, w.slice, &sl); err != nil {
			return nil, err
		}
		e.slice = sl.Bytes()
	}
	if e.sliceT0, err = firstTime(e.slice); err != nil {
		return nil, err
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for i := 0; i < fleetShards; i++ {
		e.shards = append(e.shards, filepath.Join(dir, fmt.Sprintf("%s.shard%d.bin", w.name, i)))
	}
	if err := splitCorpus(e.corpus, e.shards); err != nil {
		return nil, err
	}
	if e.srv, err = startFleetServer(); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *env) close() error { return e.srv.close() }

// generate runs the workload's generator into out.
func generate(w workload, seed int64, dilate, duration float64, out io.Writer) (load.Report, error) {
	d, err := w.newDaemon(seed, dilate, duration)
	if err != nil {
		return load.Report{}, err
	}
	return d.Run(context.Background(), out)
}

// firstTime returns the event time of a binary trace's first record.
func firstTime(data []byte) (float64, error) {
	br := bufio.NewReader(bytes.NewReader(data))
	kind, _, err := trace.SniffHeader(br)
	if err != nil {
		return 0, err
	}
	if kind == trace.KindConn {
		sc := trace.NewConnBinaryScanner(br, trace.DecodeOptions{})
		if !sc.Scan() {
			return 0, fmt.Errorf("slice holds no records: %v", sc.Err())
		}
		return sc.Conn().Start, nil
	}
	sc := trace.NewPacketBinaryScanner(br, trace.DecodeOptions{})
	if !sc.Scan() {
		return 0, fmt.Errorf("slice holds no records: %v", sc.Err())
	}
	return sc.Packet().Time, nil
}

// splitCorpus writes record i of the corpus to shard file i mod n,
// the round-robin decomposition `wancoord split` makes.
func splitCorpus(corpus []byte, paths []string) error {
	br := bufio.NewReader(bytes.NewReader(corpus))
	kind, _, err := trace.SniffHeader(br)
	if err != nil {
		return err
	}
	n := len(paths)
	encoders := make([]func(io.Writer) error, n)
	switch kind {
	case trace.KindConn:
		tr, err := trace.ReadConnTraceBinary(br)
		if err != nil {
			return err
		}
		parts := make([]*trace.ConnTrace, n)
		for i := range parts {
			parts[i] = &trace.ConnTrace{Name: tr.Name, Horizon: tr.Horizon}
		}
		for i, c := range tr.Conns {
			parts[i%n].Conns = append(parts[i%n].Conns, c)
		}
		for i, p := range parts {
			encoders[i] = func(w io.Writer) error { return trace.WriteConnTraceBinary(w, p) }
		}
	case trace.KindPacket:
		tr, err := trace.ReadPacketTraceBinary(br)
		if err != nil {
			return err
		}
		parts := make([]*trace.PacketTrace, n)
		for i := range parts {
			parts[i] = &trace.PacketTrace{Name: tr.Name, Horizon: tr.Horizon}
		}
		for i, p := range tr.Packets {
			parts[i%n].Packets = append(parts[i%n].Packets, p)
		}
		for i, p := range parts {
			encoders[i] = func(w io.Writer) error { return trace.WritePacketTraceBinary(w, p) }
		}
	default:
		return fmt.Errorf("unsupported trace kind %v", kind)
	}
	for i, path := range paths {
		if err := writeFile(path, encoders[i]); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(path string, encode func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := encode(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// fleetServer serves the current coordinator's handlers on a loopback
// listener; each fleet run swaps in a fresh coordinator.
type fleetServer struct {
	url     string
	srv     *http.Server
	handler atomic.Pointer[http.Handler]
	done    chan error
}

func startFleetServer() (*fleetServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &fleetServer{url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	s.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := s.handler.Load()
		if h == nil {
			http.Error(w, "no coordinator", http.StatusServiceUnavailable)
			return
		}
		(*h).ServeHTTP(w, r)
	})}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// mount routes the server to the given coordinator handlers.
func (s *fleetServer) mount(routes map[string]http.Handler) {
	mux := http.NewServeMux()
	for path, h := range routes {
		mux.Handle(path, h)
	}
	var h http.Handler = mux
	s.handler.Store(&h)
}

// close stops the server and waits for its serve loop to return.
func (s *fleetServer) close() error {
	err := s.srv.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}
