package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/wire"
)

// The server settings below are cmd/jimserver's flag defaults; the
// benchmark builds its in-process servers the way jimserver does.
const (
	maxBodyBytes   = 32 << 20
	snapshotMaxAge = 5 * time.Minute
	sweepEvery     = time.Minute
)

// node is one in-process server with its listeners.
type node struct {
	id       string
	dir      string
	srv      *server.Server
	st       store.Store
	httpSrv  *http.Server
	httpAddr string
	wireSrv  *wire.Server
	wireAddr string
	repl     *cluster.ReplServer
	replLn   net.Listener
	stop     func()
	wg       sync.WaitGroup
	closed   bool
}

// newNode builds a server over st and starts its HTTP and wire
// listeners. With a tracer, the HTTP handler, the wire backend and the
// store are wrapped; otherwise nothing is.
func newNode(id string, st store.Store, tr *tracer) (*node, error) {
	if tr != nil {
		st = &tracedStore{s: st, tr: tr, node: id}
	}
	n := &node{id: id, st: st, stop: func() {}}
	n.srv = server.NewWith(server.Config{
		MaxBodyBytes:   maxBodyBytes,
		Store:          st,
		SnapshotEvery:  server.DefaultSnapshotEvery,
		SnapshotMaxAge: snapshotMaxAge,
	})
	if _, err := n.srv.Restore(); err != nil {
		st.Close()
		return nil, err
	}
	if st.Name() != "mem" {
		n.stop = n.srv.StartJanitor(sweepEvery)
	}
	var handler http.Handler = n.srv.Handler()
	var backend wire.Backend = n.srv
	if tr != nil {
		handler = &tracedHandler{h: handler, tr: tr, node: id}
		backend = traceBackend(backend, tr, id)
	}
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.stop()
		st.Close()
		return nil, err
	}
	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		httpLn.Close()
		n.stop()
		st.Close()
		return nil, err
	}
	n.httpAddr, n.wireAddr = httpLn.Addr().String(), wireLn.Addr().String()
	n.httpSrv = &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	n.wireSrv = &wire.Server{Backend: backend, MaxFrame: maxBodyBytes}
	n.wg.Add(2)
	go func() { defer n.wg.Done(); n.httpSrv.Serve(httpLn) }()
	go func() { defer n.wg.Done(); n.wireSrv.Serve(wireLn) }()
	return n, nil
}

// kill stops the node without a shutdown snapshot: listeners and
// connections close, replication stops, the store closes. It waits for
// every goroutine the node started.
func (n *node) kill() {
	if n.closed {
		return
	}
	n.closed = true
	n.httpSrv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n.wireSrv.Shutdown(ctx)
	if n.repl != nil {
		n.repl.Close()
	}
	n.srv.CloseCluster()
	n.stop()
	n.wg.Wait()
	n.st.Close()
}

// startCluster starts owner n1 and follower n2, each on a disk store
// with fsync under root, replicating to each other as jimserver's
// cluster mode does.
func startCluster(root string, tr *tracer) ([]*node, error) {
	ids := []string{"n1", "n2"}
	nodes := make([]*node, 0, len(ids))
	fail := func(err error) ([]*node, error) {
		for _, n := range nodes {
			if n.replLn != nil {
				n.replLn.Close()
			}
			n.kill()
		}
		return nil, err
	}
	for _, id := range ids {
		dir := root + "/" + id
		ds, err := store.NewDisk(store.DiskOptions{Dir: dir, Fsync: true})
		if err != nil {
			return fail(err)
		}
		n, err := newNode(id, ds, tr)
		if err != nil {
			return fail(err)
		}
		n.dir = dir
		nodes = append(nodes, n)
		if n.replLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return fail(err)
		}
	}
	peers := make([]cluster.Node, len(nodes))
	for i, n := range nodes {
		peers[i] = cluster.Node{ID: n.id, HTTP: n.httpAddr, Wire: n.wireAddr, Repl: n.replLn.Addr().String()}
	}
	for _, n := range nodes {
		if err := n.srv.EnableCluster(server.ClusterOptions{Self: n.id, Peers: peers}); err != nil {
			return fail(err)
		}
		var applier cluster.Applier = n.srv
		if tr != nil {
			applier = &tracedApplier{a: applier, tr: tr, node: n.id}
		}
		n.repl = &cluster.ReplServer{Applier: applier, MaxFrame: maxBodyBytes, Heartbeat: n.srv.ClusterHeartbeat}
		n.wg.Add(1)
		go func(n *node, ln net.Listener) { defer n.wg.Done(); n.repl.Serve(ln) }(n, n.replLn)
	}
	return nodes, nil
}

// control sends an operator call (healthz, promote) and decodes the
// JSON reply.
func control(method, url string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return err
	}
	resp, err := controlClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

var controlClient = &http.Client{Timeout: 30 * time.Second}

// health is the part of GET /healthz the benchmark reads.
type health struct {
	Replication *struct {
		Synced *bool              `json:"synced"`
		Ship   *cluster.ShipStats `json:"ship"`
	} `json:"replication"`
}
