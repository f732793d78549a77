package journal

import (
	"bufio"
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// TestReadRecordMatchesScan: the streaming reader the snapshot merge uses
// takes exactly the records scan takes, from every truncation of a
// segment and with any one byte flipped.
func TestReadRecordMatchesScan(t *testing.T) {
	var seg []byte
	for i, n := range []int{0, 1, 200, 3, 70000} {
		seg = appendRecord(seg, i*1000, bytes.Repeat([]byte{byte(i)}, n))
	}
	stream := func(data []byte) []Entry {
		br := bufio.NewReaderSize(bytes.NewReader(data), 32) // just over maxHeader
		var rec []byte
		var got []Entry
		for {
			e, ok := readRecord(br, &rec)
			if !ok {
				return got
			}
			got = append(got, e)
		}
	}
	check := func(name string, data []byte) {
		var want []Entry
		scan(data, func(idx int, payload []byte) { want = append(want, Entry{Idx: idx, Data: payload}) })
		if got := stream(data); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: readRecord took %d records, scan %d", name, len(got), len(want))
		}
	}
	for cut := 0; cut <= len(seg); cut += 7 {
		check(fmt.Sprintf("cut at %d", cut), seg[:cut])
	}
	for i := 0; i < len(seg); i += 97 {
		bad := bytes.Clone(seg)
		bad[i] ^= 0x5a
		check(fmt.Sprintf("byte %d flipped", i), bad)
	}
}
