package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"
)

// resultCache is a bounded LRU of result bodies, content-addressed by
// the canonical job key. Runs are deterministic, so a hit is
// byte-identical to re-running the job; entries therefore never need
// invalidation, only eviction for space.
type resultCache struct {
	mu  sync.Mutex
	cap int
	lru *list.List               // front = most recent; values are *cacheEntry
	by  map[string]*list.Element // key → element
}

type cacheEntry struct {
	key  string
	body []byte
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{cap: capacity, lru: list.New(), by: map[string]*list.Element{}}
}

// get returns the cached body for key, promoting it to most-recent.
func (c *resultCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.by[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// put stores body under key, evicting the least-recently-used entry
// when full. The caller must not mutate body afterwards; the server
// only ever hands out slices it never writes to again.
func (c *resultCache) put(key string, body []byte) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.by[key]; ok {
		el.Value.(*cacheEntry).body = body
		c.lru.MoveToFront(el)
		return
	}
	c.by[key] = c.lru.PushFront(&cacheEntry{key: key, body: body})
	for c.lru.Len() > c.cap {
		el := c.lru.Back()
		c.lru.Remove(el)
		delete(c.by, el.Value.(*cacheEntry).key)
	}
}

// len reports the number of cached entries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// keyDigest is the short content hash used as the public cache
// identifier — stable across processes.
func keyDigest(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:8])
}
