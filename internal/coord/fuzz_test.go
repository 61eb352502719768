package coord

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"wantraffic/internal/stream"
)

// fuzzSeedUpload is a small valid upload of three connections. The
// fuzzer minimizes every new interesting input, re-running the target
// for up to a minute each, so the seeds are kept to a few hundred
// bytes.
func fuzzSeedUpload(f *testing.F) Upload {
	sk, err := stream.NewSketch(stream.ConnSketch, 0, stream.Config{Seed: 7})
	if err != nil {
		f.Fatal(err)
	}
	obs := make([]stream.Obs, 3)
	for i := range obs {
		obs[i] = stream.Obs{Time: float64(i) / 4, Value: float64(40 + 37*i), Duration: float64(i), Gap: 0.25, HasGap: i > 0}
	}
	sk.ObserveBatch(obs)
	return uploadFor(f, sk, "w0", 0, 1, 1, true)
}

// checkAccepted re-marshals an accepted upload and validates it again:
// it must come back with the same digest, and its sketch must
// serialize to exactly the uploaded bytes.
func checkAccepted(t *testing.T, u Upload, sk *stream.Sketch) {
	raw, err := json.Marshal(u)
	if err != nil {
		t.Fatalf("accepted upload does not marshal: %v", err)
	}
	var back Upload
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("re-marshaled upload does not parse: %v", err)
	}
	if _, err := validate(back); err != nil || back.Digest != u.Digest {
		t.Fatalf("re-marshaled upload: %v, digest %.12s, want %.12s", err, back.Digest, u.Digest)
	}
	if state, _ := sk.State(); Digest(state) != u.Digest {
		t.Fatalf("accepted state re-serializes to digest %.12s, uploaded %.12s", Digest(state), u.Digest)
	}
}

// FuzzUpload fuzzes the coordinator's decoders of untrusted bytes: the
// upload envelope (json.Unmarshal, then validate), a worker checkpoint
// (decodeCheckpoint) and a snapshot file (restoreSnapshot, then
// Results). None may panic; an accepted upload or checkpoint
// re-marshals and re-validates to the same digest.
func FuzzUpload(f *testing.F) {
	u := fuzzSeedUpload(f)
	raw, err := json.Marshal(u)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte(`{"proto":"wantraffic-coord/v1","worker":"w0","shard":0,"epoch":1,"seq":1,"records":0,"final":true,` +
		`"digest":"00","state":{"v":2,"trace_kind":"conn","shard":0,"records":0,"window":1,"dims":{},"series":{"width":1}}}`))
	trunc := u
	trunc.State = u.State[:len(u.State)/2]
	trunc.Digest = Digest(trunc.State)
	if raw, err = json.Marshal(trunc); err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	if raw, err = json.Marshal(snapshotFile{Proto: Proto, Workers: []Upload{u}}); err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	// One snapshot path per fuzzing process: targets run one at a time.
	path := filepath.Join(f.TempDir(), "snap.json")
	f.Fuzz(func(t *testing.T, data []byte) { fuzzUploadOnce(t, path, data) })
}

func fuzzUploadOnce(t *testing.T, path string, data []byte) {
	var u Upload
	if json.Unmarshal(data, &u) == nil {
		if sk, err := validate(u); err == nil {
			checkAccepted(t, u, sk)
		}
	}
	if u, sk, err := decodeCheckpoint(data); err == nil {
		checkAccepted(t, u, sk)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := New(Options{Snapshot: path})
	if err != nil {
		t.Fatalf("a snapshot's content must never fail New: %v", err)
	}
	_, _ = c.Results() // entries from a forged snapshot may not merge; they must not panic
}
