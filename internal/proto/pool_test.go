package proto

import (
	"bytes"
	"io"
	"testing"

	"pando/internal/race"
)

type codecGateCase struct {
	name       string
	write      func(io.Writer, *Message) error
	compressed bool // the frame must go out as a compressed body
	data       []byte
}

// codecGateCases are the frames the zero-alloc gates measure: 1 KiB in a
// raw (0xB2) body, and 16 KiB of compressible data through a channel's
// WireFormat, so the write side deflates and the read side inflates
// through the pooled coders.
func codecGateCases() []codecGateCase {
	return []codecGateCase{
		{"v2-1KiB", WriteFrame, false, bytes.Repeat([]byte{0xAB}, 1024)},
		{"v3-16KiB", new(WireFormat).WriteFrame, true, compressibleData(16 << 10)},
	}
}

// TestCodecWriteZeroAlloc pins the steady-state encode path at zero heap
// allocations per frame: the arena supplies the encode buffer and
// recycles it after the write, and the DEFLATE coder comes from its pool.
func TestCodecWriteZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops puts under the race detector: the count is not the codec's")
	}
	for _, c := range codecGateCases() {
		t.Run(c.name, func(t *testing.T) {
			m := &Message{Type: TypeInput, Seq: 7, Data: c.data}
			// Warm the pools outside the measured region.
			for i := 0; i < 8; i++ {
				if err := c.write(io.Discard, m); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				m.Seq++
				if err := c.write(io.Discard, m); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("WriteFrame: %v allocs/op, want 0", allocs)
			}
		})
	}
}

// TestCodecReadZeroAlloc pins the steady-state decode path at zero heap
// allocations per frame: the body buffer and the Message envelope both
// come from the arena and return to it via Release, and the inflater
// comes from its pool.
func TestCodecReadZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops puts under the race detector: the count is not the codec's")
	}
	for _, c := range codecGateCases() {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			m := &Message{Type: TypeResult, Seq: 42, Data: c.data}
			if err := c.write(&buf, m); err != nil {
				t.Fatal(err)
			}
			frame := buf.Bytes()
			if c.compressed && frame[4] != cmpMagic {
				t.Fatal("frame went out uncompressed: the gate would not inflate")
			}
			r := bytes.NewReader(frame)
			for i := 0; i < 8; i++ { // warm the pools
				r.Reset(frame)
				out, err := ReadFrame(r)
				if err != nil {
					t.Fatal(err)
				}
				Release(out)
			}
			allocs := testing.AllocsPerRun(200, func() {
				r.Reset(frame)
				out, err := ReadFrame(r)
				if err != nil {
					t.Fatal(err)
				}
				if out.Seq != 42 || len(out.Data) != len(c.data) {
					t.Fatalf("bad decode: %+v", out)
				}
				Release(out)
			})
			if allocs != 0 {
				t.Fatalf("ReadFrame+Release: %v allocs/op, want 0", allocs)
			}
		})
	}
}

// TestReleaseCanary proves the corrupt-after-release canary works: with
// poisonPut enabled, data still referenced after Release is visibly
// scribbled, so any use-after-release in the stack fails loudly in tests
// instead of silently corrupting a stream.
func TestReleaseCanary(t *testing.T) {
	poisonPut.Store(true)
	defer poisonPut.Store(false)

	var buf bytes.Buffer
	payload := bytes.Repeat([]byte{0x11}, 256)
	if err := WriteFrame(&buf, &Message{Type: TypeInput, Seq: 1, Data: payload}); err != nil {
		t.Fatal(err)
	}
	m, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	data := m.Data // illegally retained across Release
	Release(m)
	poisoned := false
	for _, b := range data {
		if b == 0xDB {
			poisoned = true
			break
		}
	}
	if !poisoned {
		t.Fatal("released frame data was not poisoned; use-after-release would be silent")
	}
}

// TestDetachPreservesData is the legal counterpart of the canary test:
// Detach transfers buffer ownership to the escaping Data reference, so a
// later Release must leave the bytes intact even with poisoning on.
func TestDetachPreservesData(t *testing.T) {
	poisonPut.Store(true)
	defer poisonPut.Store(false)

	var buf bytes.Buffer
	payload := bytes.Repeat([]byte{0x22}, 256)
	if err := WriteFrame(&buf, &Message{Type: TypeInput, Seq: 2, Data: payload}); err != nil {
		t.Fatal(err)
	}
	m, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	data := m.Data
	m.Detach()
	Release(m)
	if !bytes.Equal(data, payload) {
		t.Fatal("detached data was clobbered by Release")
	}
}

// TestReleaseRecyclesAcrossFrames checks the ownership handoff end to
// end: a detached payload from frame 1 must survive frame 2 reusing the
// arena, byte for byte.
func TestReleaseRecyclesAcrossFrames(t *testing.T) {
	first := bytes.Repeat([]byte{0x33}, 512)
	second := bytes.Repeat([]byte{0x44}, 512)

	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Message{Type: TypeInput, Seq: 1, Data: first}); err != nil {
		t.Fatal(err)
	}
	m1, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	kept := m1.Data
	m1.Detach()
	Release(m1)

	buf.Reset()
	if err := WriteFrame(&buf, &Message{Type: TypeInput, Seq: 2, Data: second}); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer Release(m2)

	if !bytes.Equal(kept, first) {
		t.Fatal("detached frame-1 payload changed after the arena served frame 2")
	}
	if !bytes.Equal(m2.Data, second) {
		t.Fatal("frame-2 payload corrupted")
	}
}

// TestGetBufClasses exercises the size-class mapping, including the
// oversized path that bypasses the pool.
func TestGetBufClasses(t *testing.T) {
	sizes := []int{0, 1}
	for _, size := range bufClasses {
		sizes = append(sizes, size, size+1)
	}
	for _, n := range sizes {
		b := GetBuf(n)
		if len(b) != 0 || cap(b) < n {
			t.Fatalf("GetBuf(%d): len=%d cap=%d", n, len(b), cap(b))
		}
		PutBuf(b)
	}
	maxPooledBuf := bufClasses[len(bufClasses)-1]
	huge := GetBuf(maxPooledBuf + 1)
	if cap(huge) < maxPooledBuf+1 {
		t.Fatalf("oversized GetBuf too small: %d", cap(huge))
	}
	PutBuf(huge) // must not pin it in a pool; just must not panic
}

// TestAppendFrameMatchesWriteFrame checks that the append-path encoder
// (the vectored-batch building block) produces byte-identical frames to
// WriteFrame, for a frame that stays raw and for one that compresses.
func TestAppendFrameMatchesWriteFrame(t *testing.T) {
	big := &Message{Type: TypeInput, Seq: 9, Data: compressibleData(8 << 10)}
	for _, m := range []*Message{fullMessage(), big} {
		var buf bytes.Buffer
		if err := new(WireFormat).WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
		appended, err := new(WireFormat).AppendFrame(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), appended) {
			t.Fatalf("seq %d: AppendFrame differs from WriteFrame", m.Seq)
		}
	}
}

// TestDecodeBatchShared checks the aliasing batch decoder round-trips and
// actually aliases (no copy).
func TestDecodeBatchShared(t *testing.T) {
	items := []BatchItem{
		{D: []byte("alpha")},
		{E: "boom"},
		{D: []byte("gamma"), E: "warn"},
	}
	data := EncodeBatch(items)
	got, err := DecodeBatchShared(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("got %d items, want %d", len(got), len(items))
	}
	for i := range items {
		if !bytes.Equal(got[i].D, items[i].D) || got[i].E != items[i].E {
			t.Fatalf("item %d mismatch: %+v != %+v", i, got[i], items[i])
		}
	}
	// Aliasing: mutating the frame must show through the decoded item.
	if len(got[0].D) > 0 {
		got[0].D[0] ^= 0xFF
		found := bytes.Contains(data, got[0].D)
		if !found {
			t.Fatal("DecodeBatchShared copied items; expected aliasing")
		}
	}
}

// FuzzFrameReuse drives random payloads through the full pooled
// write→read→detach→release cycle twice, checking that a detached
// payload from the first frame is never clobbered by the second — the
// core no-aliasing-after-recycle guarantee under arbitrary sizes.
func FuzzFrameReuse(f *testing.F) {
	f.Add([]byte("hello"), []byte("world"))
	f.Add([]byte{}, bytes.Repeat([]byte{0x7F}, 5000))
	f.Add(bytes.Repeat([]byte{0xB2}, 70000), []byte{0x00})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		poisonPut.Store(true)
		defer poisonPut.Store(false)

		var buf bytes.Buffer
		if err := WriteFrame(&buf, &Message{Type: TypeInput, Seq: 1, Data: a}); err != nil {
			t.Fatal(err)
		}
		m1, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		kept := m1.Data
		m1.Detach()
		Release(m1)

		buf.Reset()
		if err := WriteFrame(&buf, &Message{Type: TypeResult, Seq: 2, Data: b}); err != nil {
			t.Fatal(err)
		}
		m2, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(kept, a) && len(a) > 0 {
			t.Fatal("detached payload clobbered by arena reuse")
		}
		if !bytes.Equal(m2.Data, b) && len(b) > 0 {
			t.Fatal("second frame decoded wrong payload")
		}
		Release(m2)
	})
}
