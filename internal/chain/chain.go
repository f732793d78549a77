// Package chain implements the proof-of-work blockchain substrate of the
// paper's crypto-currency mining application (§4.2): miners compete to
// find a nonce such that the hash of the nonce and the block of
// transactions combined is inferior to a difficulty threshold; once a
// valid nonce has been found the list of blocks is extended and all
// miners start working on the next block — a synchronous parallel search.
package chain

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// Block is one element of the chain.
type Block struct {
	// Index is the block height (genesis is 0).
	Index int `json:"index"`
	// Prev is the hex hash of the previous block.
	Prev string `json:"prev"`
	// Data stands in for the block of transactions.
	Data string `json:"data"`
	// Bits is the difficulty: the hash must have at least Bits leading
	// zero bits.
	Bits int `json:"bits"`
	// Nonce is the proof of work.
	Nonce uint64 `json:"nonce"`
}

// headerBytes serializes the hashed portion of the block.
func (b *Block) headerBytes(nonce uint64) []byte {
	buf := make([]byte, 0, 8+8+len(b.Prev)+len(b.Data)+8)
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], uint64(b.Index))
	buf = append(buf, tmp[:]...)
	buf = append(buf, b.Prev...)
	buf = append(buf, b.Data...)
	binary.BigEndian.PutUint64(tmp[:], uint64(b.Bits))
	buf = append(buf, tmp[:]...)
	binary.BigEndian.PutUint64(tmp[:], nonce)
	buf = append(buf, tmp[:]...)
	return buf
}

// HashWithNonce returns the block hash for a candidate nonce.
func (b *Block) HashWithNonce(nonce uint64) [32]byte {
	return sha256.Sum256(b.headerBytes(nonce))
}

// Hash returns the hash with the block's own nonce.
func (b *Block) Hash() [32]byte { return b.HashWithNonce(b.Nonce) }

// HexHash returns the hash as a hex string.
func (b *Block) HexHash() string {
	h := b.Hash()
	return hex.EncodeToString(h[:])
}

// LeadingZeroBits counts the leading zero bits of a hash.
func LeadingZeroBits(h [32]byte) int {
	n := 0
	for _, b := range h {
		if b == 0 {
			n += 8
			continue
		}
		n += bits.LeadingZeros8(b)
		break
	}
	return n
}

// MeetsDifficulty reports whether a hash satisfies the difficulty.
func MeetsDifficulty(h [32]byte, difficultyBits int) bool {
	return LeadingZeroBits(h) >= difficultyBits
}

// Valid reports whether the block's proof of work is correct.
func (b *Block) Valid() bool { return MeetsDifficulty(b.Hash(), b.Bits) }

// Attempt is one mining work unit: test every nonce in [Start, End) for
// the given block template. The monitor generates as many concurrent
// attempts as there are participating workers (paper Figure 11).
type Attempt struct {
	Block Block  `json:"block"` // template; Nonce field unused
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
}

// Result is a worker's answer to an attempt.
type Result struct {
	Attempt Attempt `json:"attempt"`
	Found   bool    `json:"found"`
	Nonce   uint64  `json:"nonce"`
	// Hashes is how many nonces were tested (throughput accounting for
	// Table 2's Hashes/s column).
	Hashes uint64 `json:"hashes"`
}

// Mine tests every nonce in the attempt's range, stopping at the first
// valid one — the worker side of the mining application.
func Mine(a Attempt) Result {
	r := Result{Attempt: a}
	for nonce := a.Start; nonce < a.End; nonce++ {
		r.Hashes++
		if MeetsDifficulty(a.Block.HashWithNonce(nonce), a.Block.Bits) {
			r.Found = true
			r.Nonce = nonce
			return r
		}
	}
	return r
}

// Chain is an append-only validated list of blocks.
type Chain struct {
	mu     sync.Mutex
	blocks []Block
	bits   int
}

// ErrInvalidBlock rejects a block whose linkage or proof of work is wrong.
var ErrInvalidBlock = errors.New("chain: invalid block")

// NewChain creates a chain with a genesis block at the given difficulty.
func NewChain(difficultyBits int) *Chain {
	genesis := Block{Index: 0, Prev: "", Data: "genesis", Bits: 0}
	return &Chain{blocks: []Block{genesis}, bits: difficultyBits}
}

// Height returns the number of blocks, including genesis.
func (c *Chain) Height() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.blocks)
}

// NextTemplate returns the block template miners should currently work
// on, with the given transaction data.
func (c *Chain) NextTemplate(data string) Block {
	c.mu.Lock()
	defer c.mu.Unlock()
	tip := c.blocks[len(c.blocks)-1]
	return Block{
		Index: tip.Index + 1,
		Prev:  tip.HexHash(),
		Data:  data,
		Bits:  c.bits,
	}
}

// Append validates and appends a mined block. A block that extends a
// stale tip is rejected, which is how a late valid nonce for an already
// mined block is discarded.
func (c *Chain) Append(b Block) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	tip := c.blocks[len(c.blocks)-1]
	if b.Index != tip.Index+1 {
		return fmt.Errorf("%w: index %d does not extend tip %d", ErrInvalidBlock, b.Index, tip.Index)
	}
	if b.Prev != tip.HexHash() {
		return fmt.Errorf("%w: prev hash mismatch", ErrInvalidBlock)
	}
	if !b.Valid() {
		return fmt.Errorf("%w: proof of work does not meet difficulty %d", ErrInvalidBlock, b.Bits)
	}
	c.blocks = append(c.blocks, b)
	return nil
}

// Verify checks the whole chain's linkage and proofs of work.
func (c *Chain) Verify() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 1; i < len(c.blocks); i++ {
		b := c.blocks[i]
		prev := c.blocks[i-1]
		if b.Prev != prev.HexHash() || b.Index != prev.Index+1 || !b.Valid() {
			return fmt.Errorf("%w: at height %d", ErrInvalidBlock, i)
		}
	}
	return nil
}

// Blocks returns a copy of the chain.
func (c *Chain) Blocks() []Block {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Block(nil), c.blocks...)
}

// Monitor implements the feedback loop of the paper's Figure 11: it
// lazily provides mining attempts — as many as workers ask for — for the
// current block, and advances to the next block when a valid nonce comes
// back. Both the list of blocks and the computational requirements are
// potentially infinite, making the lazy streaming approach natural.
type Monitor struct {
	mu        sync.Mutex
	chain     *Chain
	rangeSize uint64
	nextStart uint64
	target    int // stop once the chain reaches this height; 0 = never
	dataFor   func(height int) string
}

// NewMonitor creates a monitor mining blocks onto chain in nonce ranges
// of rangeSize, stopping when the chain holds targetHeight blocks.
// dataFor supplies the transaction data for each height (nil uses a
// default).
func NewMonitor(chain *Chain, rangeSize uint64, targetHeight int, dataFor func(int) string) *Monitor {
	if dataFor == nil {
		dataFor = func(h int) string { return fmt.Sprintf("block-%d-transactions", h) }
	}
	return &Monitor{
		chain:     chain,
		rangeSize: rangeSize,
		target:    targetHeight,
		dataFor:   dataFor,
	}
}

// Done reports whether the target height has been reached.
func (m *Monitor) Done() bool {
	if m.target <= 0 {
		return false
	}
	return m.chain.Height() >= m.target
}

// NextAttempt returns the next work unit for the current tip. It is the
// lazy input generator: called only when a worker is available.
func (m *Monitor) NextAttempt() (Attempt, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.Done() {
		return Attempt{}, false
	}
	//pando:allow locksend dataFor is the caller-supplied payload generator, documented non-blocking; Monitor.mu is the miner's only lock so it cannot be re-entered
	tpl := m.chain.NextTemplate(m.dataFor(m.chain.Height()))
	a := Attempt{Block: tpl, Start: m.nextStart, End: m.nextStart + m.rangeSize}
	m.nextStart += m.rangeSize
	return a, true
}

// Handle processes a worker's result: a valid nonce for the current tip
// extends the chain and resets the nonce window; stale or unsuccessful
// results just trigger new attempts. It returns true when mining is
// complete.
func (m *Monitor) Handle(r Result) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r.Found {
		b := r.Attempt.Block
		b.Nonce = r.Nonce
		if err := m.chain.Append(b); err == nil {
			// New block: restart the nonce window for the next one.
			m.nextStart = 0
		}
		// A stale valid nonce (block already extended) is discarded.
	}
	return m.Done()
}
