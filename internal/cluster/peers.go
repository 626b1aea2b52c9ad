package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/vos"
)

// shardTenant is the tenant name shard sub-sweeps are submitted under,
// so fleet operators can tell internal fan-out traffic from user
// submissions in quotas and access logs. Nodes exempt it from their
// tenant quota — a coordinator's shards must never be throttled by the
// very sweep that spawned them.
const shardTenant = "cluster-internal"

// peer is one remote cluster member: its circuit breaker, the HTTP
// client used for cache-entry traffic, and a vos.Remote for shard
// sub-sweeps. A peer is created once at node start and shared by the
// cache and planner tiers, so both tiers feed one liveness signal.
type peer struct {
	url    string
	br     *breaker
	httpc  *http.Client
	remote *vos.Remote
}

// peerSet is the node's static membership view: every member of the
// ring except itself.
type peerSet struct {
	self  string
	peers map[string]*peer
	httpc *http.Client // shared by every peer
}

// newPeerSet builds peers for every member except self. Member URLs
// must parse as absolute URLs (vos.NewRemote enforces this). transport
// overrides the HTTP transport used for all peer traffic (cache fills
// and shard sub-sweeps); nil means the default. It is the cluster's
// outbound fault-injection seam — internal/chaos wraps it.
func newPeerSet(self string, members []string, transport http.RoundTripper) (*peerSet, error) {
	if transport == nil {
		// Keep enough idle connections per peer for a sweep's concurrent
		// shard streams and cache fills; the stock two would tear the
		// rest down and redial them on the next request.
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConnsPerHost = peerIdleConns
		transport = t
	}
	// One shared client: cache fills and shard streams to the same
	// fleet should share connection pools, not fight over new sockets.
	httpc := &http.Client{Transport: transport}
	ps := &peerSet{self: self, peers: make(map[string]*peer), httpc: httpc}
	for _, m := range members {
		if m == self || m == "" {
			continue
		}
		if _, ok := ps.peers[m]; ok {
			continue
		}
		remote, err := vos.NewRemote(m, vos.RemoteOptions{
			HTTPClient: httpc,
			Tenant:     shardTenant,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: peer %q: %w", m, err)
		}
		ps.peers[m] = &peer{url: m, br: newBreaker(), httpc: httpc, remote: remote}
	}
	return ps, nil
}

// peerIdleConns is the idle connection pool per peer of the default
// peer transport.
const peerIdleConns = 32

// closeIdle releases the peer client's idle connections.
func (ps *peerSet) closeIdle() { ps.httpc.CloseIdleConnections() }

// get returns the peer for a member URL, or nil for self/unknown.
func (ps *peerSet) get(url string) *peer { return ps.peers[url] }

// urls returns the peer URLs, sorted.
func (ps *peerSet) urls() []string {
	out := make([]string, 0, len(ps.peers))
	for u := range ps.peers {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// fetchTimeout bounds one peer cache-entry round trip. Cache fills are
// an optimization — a slow peer must lose to just simulating locally.
const fetchTimeout = 3 * time.Second

// maxEntryBytes bounds a fetched cache entry, matching the PUT-side cap
// of the httpapi cache-entry endpoint.
const maxEntryBytes = 8 << 20

// fetchEntry retrieves one raw cache entry from the peer.
// found=false with a nil error is a clean 404.
func (p *peer) fetchEntry(ctx context.Context, key string) (data []byte, found bool, err error) {
	ctx, cancel := context.WithTimeout(ctx, fetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/v1/cache/entries/"+key, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := p.httpc.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		// Read one byte past the cap so an oversized body is rejected
		// outright instead of silently truncated into garbage.
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxEntryBytes+1))
		if err != nil {
			return nil, false, err
		}
		if len(data) > maxEntryBytes {
			return nil, false, fmt.Errorf("cluster: peer %s cache entry exceeds %d bytes", p.url, maxEntryBytes)
		}
		return data, true, nil
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("cluster: peer %s returned %s for cache entry", p.url, resp.Status)
	}
}

// pushEntry stores one raw cache entry on the peer.
func (p *peer) pushEntry(ctx context.Context, key string, data []byte) error {
	ctx, cancel := context.WithTimeout(ctx, fetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, p.url+"/v1/cache/entries/"+key, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("cluster: peer %s returned %s for cache push", p.url, resp.Status)
	}
	return nil
}
