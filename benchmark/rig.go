package main

import (
	"errors"
	"net"

	"repro/internal/card"
	"repro/internal/dsp"
	"repro/internal/fleet"
	"repro/internal/gateway"
	"repro/internal/secure"
)

// rigConfig holds the settings a workload changes from the daemons'
// defaults; everything else is what cmd/dspd and cmd/gatewayd assemble
// when started with no flags but a store directory.
type rigConfig struct {
	// dspCacheBytes is dspd's -cache-mb (64 MiB by default).
	dspCacheBytes int64
	// checkpointBytes is dspd's -checkpoint-mb (0: the store default).
	checkpointBytes int64
	// noGatewayCache is gatewayd's -cache-mb 0. The gateway-side cache
	// is invalidated only by writes that pass through it, so beside a
	// publisher with a connection of its own it keeps serving the old
	// ciphertext of re-published blocks under the new header, and every
	// later query of that document fails its integrity check. A workload
	// with such a writer therefore runs the gateway without it.
	noGatewayCache bool
}

// rig is the deployed stack in one process over loopback TCP:
//
//	FileStore → Cache → dsp.Server ⇢ dsp.Pool → Cache → fleet.Gateway → gateway.Server ⇢ gateway.Client
//
// built with the constructors and defaults of the two daemons' main
// functions: fsync on, default shards, mmap and sendfile tiers on, a
// 4-connection pool and a 32 MiB block cache on the gateway side,
// prefetch depth 8, card.Modern.
type rig struct {
	cfg rigConfig
	dir string

	fs       *dsp.FileStore
	dspCache *dsp.Cache
	dspSrv   *dsp.Server
	dspAddr  string

	pool *dsp.Pool
	// gwCache is nil when the gateway runs without a local cache.
	gwCache *dsp.Cache
	fl      *fleet.Gateway
	gwSrv   *gateway.Server
	gwAddr  string
}

const (
	gatewayCacheBytes = 32 << 20
	gatewayPrefetch   = 8
)

// autoKeys is the daemons' -auto-keys convention.
func autoKeys(docID string) (secure.DocKey, error) { return secure.KeyFromSeed(docID), nil }

// newStoreTier opens the durable store in dir and serves it the way
// dspd does. It is the untrusted half of the rig and all store_cold
// needs.
func newStoreTier(dir string, cfg rigConfig) (*rig, error) {
	fs, err := dsp.NewFileStoreOptions(dir, dsp.FileStoreOptions{CheckpointBytes: cfg.checkpointBytes})
	if err != nil {
		return nil, err
	}
	cacheBytes := cfg.dspCacheBytes
	if cacheBytes == 0 {
		cacheBytes = 64 << 20
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = fs.Close()
		return nil, err
	}
	r := &rig{cfg: cfg, dir: dir, fs: fs, dspCache: dsp.NewCache(fs, cacheBytes), dspAddr: l.Addr().String()}
	r.dspSrv = dsp.NewServer(r.dspCache)
	go func() { _ = r.dspSrv.Serve(l) }()
	return r, nil
}

// startGateway adds the trusted half: a gatewayd over the store tier.
func (r *rig) startGateway() error {
	pool, err := dsp.DialPool(r.dspAddr, dsp.DefaultPoolSize)
	if err != nil {
		return err
	}
	r.pool = pool
	var store dsp.Store = pool
	if !r.cfg.noGatewayCache {
		r.gwCache = dsp.NewCache(pool, gatewayCacheBytes)
		store = r.gwCache
	}
	r.fl, err = fleet.New(fleet.Config{
		Store:    store,
		Keys:     autoKeys,
		Profile:  card.Modern,
		Prefetch: gatewayPrefetch,
	})
	if err != nil {
		return err
	}
	r.gwSrv = gateway.NewServer(r.fl, gateway.ServerConfig{Label: "benchmark"})
	if r.gwCache != nil {
		r.gwSrv.CacheStats = r.gwCache.Stats
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.gwAddr = l.Addr().String()
	go func() { _ = r.gwSrv.Serve(l) }()
	return nil
}

// stopGateway drains the trusted half (the order gatewayd's main uses).
func (r *rig) stopGateway() error {
	var errs []error
	if r.gwSrv != nil {
		errs = append(errs, r.gwSrv.Close())
		r.gwSrv = nil
	}
	if r.fl != nil {
		r.fl.Close()
		r.fl = nil
	}
	if r.pool != nil {
		errs = append(errs, r.pool.Close())
		r.pool = nil
	}
	return errors.Join(errs...)
}

// stopStore drains dspd and closes the durable store, leaving the
// directory in place for a reopen.
func (r *rig) stopStore() error {
	var errs []error
	if r.dspSrv != nil {
		errs = append(errs, r.dspSrv.Close())
		r.dspSrv = nil
	}
	if r.fs != nil {
		errs = append(errs, r.fs.Close())
		r.fs = nil
	}
	return errors.Join(errs...)
}

// close stops every server; the store directory is its creator's.
func (r *rig) close() error {
	return errors.Join(r.stopGateway(), r.stopStore())
}
