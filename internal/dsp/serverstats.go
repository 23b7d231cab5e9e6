package dsp

import "encoding/json"

// ServerStats is the observability snapshot a dspd server exports over
// opStoreStats: what a store operator (or a gateway daemon fronting the
// store) needs to see to debug a tier under load. Tiers the server was
// not assembled with are simply absent from the JSON.
type ServerStats struct {
	// Documents is the number of documents the store holds.
	Documents int `json:"documents"`
	// Cache is the LRU block-cache snapshot, when a cache tier is wired.
	Cache *CacheStats `json:"cache,omitempty"`
	// Durable is the WAL/checkpoint snapshot, when the store is a
	// FileStore.
	Durable *FileStoreStats `json:"durable,omitempty"`
}

// StoreStats fetches the remote server's observability snapshot.
func (c *Client) StoreStats() (*ServerStats, error) {
	resp, err := c.roundTrip(request(opStoreStats))
	if err != nil {
		return nil, err
	}
	var st ServerStats
	if err := json.Unmarshal(resp, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// StoreStats fetches the remote server's observability snapshot over a
// borrowed pool connection.
func (p *Pool) StoreStats() (st *ServerStats, err error) {
	err = p.withConn(func(c *Client) error {
		st, err = c.StoreStats()
		return err
	})
	return st, err
}
