package serve_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"memnet/internal/core"
	"memnet/internal/exp"
	"memnet/internal/par"
	"memnet/internal/prof"
	"memnet/internal/serve"
)

// profileRunner runs two real (tiny) simulations, so a profiling server
// collects one profile per run through the job's configure hook.
func profileRunner(sp *serve.JobSpec, configure exp.Configure) (string, error) {
	for i, arch := range []core.Arch{core.PCIe, core.UMN} {
		cfg := core.DefaultConfig(arch, "VA")
		cfg.Scale = 0.05
		configure(&cfg, fmt.Sprintf("%03d-VA-%s", i, arch))
		if _, err := core.Run(cfg); err != nil {
			return "", err
		}
	}
	return "ran\n", nil
}

// TestProfileEndpoint checks the served-profile path end to end: a
// profiling server collects one "memnet-prof/v1" document per run of the
// job and serves them as a JSON array.
func TestProfileEndpoint(t *testing.T) {
	s := newServer(t, serve.Config{Runner: profileRunner, Profile: true})
	defer s.Shutdown(ctxT(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	key, _, _, err := s.Submit(spec("fig7", 0.1, ""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(ctxT(t), key); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + key + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	var profiles []prof.Profile
	if err := decodeJSON(resp, &profiles); err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 2 {
		t.Fatalf("got %d profiles, want 2 (one per run)", len(profiles))
	}
	for i, p := range profiles {
		if p.Schema != prof.Schema {
			t.Fatalf("profile %d has schema %q, want %q", i, p.Schema, prof.Schema)
		}
		if p.Net == nil || len(p.Net.Classes) == 0 {
			t.Fatalf("profile %d has no network section", i)
		}
	}
}

// TestProfileEndpointJobOrder runs a real registry experiment on a
// parallel pool and checks the served profiles come back in the
// experiment's job order (Table III architecture order for fig14), not in
// the order the workers happened to finish.
func TestProfileEndpointJobOrder(t *testing.T) {
	prev := par.SetParallelism(4)
	defer par.SetParallelism(prev)
	s := newServer(t, serve.Config{Profile: true}) // RegistryRunner
	defer s.Shutdown(ctxT(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	key, _, _, err := s.Submit(&serve.JobSpec{Experiment: "fig14", Scale: 0.05, Workloads: []string{"VA"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(ctxT(t), key); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + key + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	var profiles []prof.Profile
	if err := decodeJSON(resp, &profiles); err != nil {
		t.Fatal(err)
	}
	archs := core.Architectures()
	if len(profiles) != len(archs) {
		t.Fatalf("got %d profiles, want %d (one per architecture)", len(profiles), len(archs))
	}
	for i, arch := range archs {
		if want := "VA/" + arch.String(); profiles[i].Run != want {
			t.Fatalf("profile %d is %q, want %q (job order)", i, profiles[i].Run, want)
		}
	}
}

// TestProfileEndpointDisabled pins the 404 contract: without server-side
// profiling a finished job has a result but no profile.
func TestProfileEndpointDisabled(t *testing.T) {
	runner, _ := countingRunner(nil, nil)
	s := newServer(t, serve.Config{Runner: runner})
	defer s.Shutdown(ctxT(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	key, _, _, err := s.Submit(spec("fig7", 0.1, ""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(ctxT(t), key); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + key + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("profile of an unprofiled job returned %d, want 404", resp.StatusCode)
	}

	// Unknown and unfinished jobs 404 too.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + strings.Repeat("0", 64) + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("profile of an unknown job returned %d, want 404", resp2.StatusCode)
	}
}
