package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// base fills the flag defaults shared by every expectation.
func base() config {
	return config{
		addr:           "127.0.0.1:8080",
		sweepEvery:     time.Minute,
		maxBodyBytes:   32 << 20,
		readTimeout:    30 * time.Second,
		writeTimeout:   30 * time.Second,
		idleTimeout:    2 * time.Minute,
		storeBackend:   "mem",
		dataDir:        "jim-data",
		fsync:          true,
		snapshotEvery:  server.DefaultSnapshotEvery,
		snapshotMaxAge: 5 * time.Minute,
		rejoin:         true,
	}
}

func TestParseFlags(t *testing.T) {
	full := base()
	full.addr = ":9090"
	full.maxSessions = 100
	full.sessionTTL = 30 * time.Minute
	full.sweepEvery = 10 * time.Second
	full.maxBodyBytes = 1024
	full.readTimeout = time.Minute
	full.writeTimeout = 45 * time.Second
	full.idleTimeout = 5 * time.Minute
	full.scoreWorkers = 2
	disk := base()
	disk.storeBackend = "disk"
	disk.dataDir = "/var/lib/jim"
	disk.fsync = false
	disk.snapshotEvery = 16
	disk.snapshotMaxAge = time.Minute
	clustered := base()
	clustered.nodeID = "n1"
	clustered.clusterPeers = "n1=h1:8080||h1:7080,n2=h2:8080||h2:7080"
	clustered.replAddr = ":7080"
	clustered.clusterProxy = true
	cases := []struct {
		name    string
		args    []string
		want    config
		wantErr bool
	}{
		{
			name: "defaults",
			args: nil,
			want: base(),
		},
		{
			name: "full",
			args: []string{"-addr", ":9090", "-max-sessions", "100", "-session-ttl", "30m", "-sweep-every", "10s", "-max-body-bytes", "1024", "-read-timeout", "1m", "-write-timeout", "45s", "-idle-timeout", "5m", "-score-workers", "2"},
			want: full,
		},
		{
			name: "disk store",
			args: []string{"-store", "disk", "-data-dir", "/var/lib/jim", "-fsync=false", "-snapshot-every", "16", "-snapshot-max-age", "1m"},
			want: disk,
		},
		{
			name: "cluster",
			args: []string{"-node-id", "n1", "-cluster-peers", "n1=h1:8080||h1:7080,n2=h2:8080||h2:7080", "-repl-addr", ":7080", "-cluster-proxy"},
			want: clustered,
		},
		{name: "negative cap", args: []string{"-max-sessions", "-1"}, wantErr: true},
		{name: "peers without node-id", args: []string{"-cluster-peers", "n1=h1:8080"}, wantErr: true},
		{name: "node-id without peers", args: []string{"-node-id", "n1"}, wantErr: true},
		{name: "repl-addr without peers", args: []string{"-repl-addr", ":7080"}, wantErr: true},
		{name: "proxy without peers", args: []string{"-cluster-proxy"}, wantErr: true},
		{name: "negative ttl", args: []string{"-session-ttl", "-5s"}, wantErr: true},
		{name: "negative body cap", args: []string{"-max-body-bytes", "-1"}, wantErr: true},
		{name: "negative read timeout", args: []string{"-read-timeout", "-1s"}, wantErr: true},
		{name: "negative write timeout", args: []string{"-write-timeout", "-1s"}, wantErr: true},
		{name: "negative idle timeout", args: []string{"-idle-timeout", "-1s"}, wantErr: true},
		{name: "negative score workers", args: []string{"-score-workers", "-1"}, wantErr: true},
		{name: "unknown store", args: []string{"-store", "redis"}, wantErr: true},
		{name: "disk without dir", args: []string{"-store", "disk", "-data-dir", ""}, wantErr: true},
		{name: "zero snapshot-every", args: []string{"-snapshot-every", "0"}, wantErr: true},
		{name: "negative snapshot age", args: []string{"-snapshot-max-age", "-1m"}, wantErr: true},
		{name: "bad flag", args: []string{"-nope"}, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseFlags(tc.args)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("parseFlags(%v) accepted", tc.args)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("parseFlags(%v) = %+v, want %+v", tc.args, got, tc.want)
			}
		})
	}
}

// TestNewServerAppliesConfig checks the flag-to-server wiring by
// observing the configured cap through the HTTP API.
func TestNewServerAppliesConfig(t *testing.T) {
	cfg, err := parseFlags([]string{"-max-sessions", "1"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := newStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(cfg, st).Handler())
	defer ts.Close()
	csv := "A,B\n1,1\n1,2\n"
	post := func() int {
		data, _ := json.Marshal(map[string]any{"csv": csv})
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(); code != http.StatusCreated {
		t.Fatalf("first create: status %d", code)
	}
	if code := post(); code != http.StatusTooManyRequests {
		t.Errorf("second create: status %d, want 429", code)
	}
}

// TestDiskFlagsSurviveRestart drives the whole flag-to-store wiring:
// label over HTTP against a disk-backed server built from flags,
// restart on the same directory, and find the work still there.
func TestDiskFlagsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() (*server.Server, store.Store, *httptest.Server) {
		cfg, err := parseFlags([]string{"-store", "disk", "-data-dir", dir, "-fsync=false"})
		if err != nil {
			t.Fatal(err)
		}
		st, err := newStore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		svc := newServer(cfg, st)
		if _, err := svc.Restore(); err != nil {
			t.Fatal(err)
		}
		return svc, st, httptest.NewServer(svc.Handler())
	}

	_, st, ts := open()
	var created struct {
		ID string `json:"id"`
	}
	data, _ := json.Marshal(map[string]any{"csv": "A,B\n1,1\n1,2\n2,2\n"})
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, st2, ts2 := open()
	defer ts2.Close()
	defer st2.Close()
	r2, err := http.Get(ts2.URL + "/v1/sessions/" + created.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("restored session lookup: status %d", r2.StatusCode)
	}
}
