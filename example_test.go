package pando_test

// Runnable godoc examples for the public API.

import (
	"context"
	"fmt"
	"sort"
	"strings"

	pando "pando"
)

// The simplest deployment: a streaming map over local workers.
func ExampleNew() {
	p := pando.New("example-doc-square", func(v int) (int, error) {
		return v * v, nil
	})
	defer p.Close()
	p.AddLocalWorkers(2)

	out, err := p.ProcessSlice(context.Background(), []int{1, 2, 3, 4})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(out)
	// Output: [1 4 9 16]
}

// Results arrive in input order even though devices process values
// concurrently and at different speeds — the declarative-concurrency
// property of the programming model.
func ExampleNew_ordering() {
	p := pando.New("example-doc-upper", func(s string) (string, error) {
		return strings.ToUpper(s), nil
	})
	defer p.Close()
	p.AddLocalWorkers(4)

	out, err := p.ProcessSlice(context.Background(),
		[]string{"pando", "maps", "streams", "in", "order"})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(strings.Join(out, " "))
	// Output: PANDO MAPS STREAMS IN ORDER
}

// WithUnordered emits results in completion order, the variant the paper
// recommends for synchronous parallel search.
func ExampleWithUnordered() {
	p := pando.New("example-doc-unordered", func(v int) (int, error) {
		return v * 10, nil
	}, pando.WithUnordered())
	defer p.Close()
	p.AddLocalWorkers(3)

	out, err := p.ProcessSlice(context.Background(), []int{1, 2, 3, 4, 5})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	sort.Ints(out) // completion order varies; the set does not
	fmt.Println(out)
	// Output: [10 20 30 40 50]
}

// Process consumes and produces channels, supporting unbounded streams.
func ExamplePando_Process() {
	p := pando.New("example-doc-stream", func(v int) (int, error) {
		return v + 100, nil
	})
	defer p.Close()
	p.AddLocalWorkers(2)

	in := make(chan int)
	go func() {
		defer close(in)
		for i := 1; i <= 3; i++ {
			in <- i
		}
	}()
	outc, errc := p.Process(context.Background(), in)
	for v := range outc {
		fmt.Println(v)
	}
	if err := <-errc; err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// 101
	// 102
	// 103
}

// Handler adapts a typed function into the volunteer registry form — the
// Go equivalent of the paper's Figure 2 glue code. The result is appended
// to the first argument, here nil.
func ExampleHandler() {
	h := pando.Handler(func(v int) (int, error) { return v * 2, nil })
	out, err := h(nil, []byte("21"))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(string(out))
	// Output: 42
}
