package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"sprinkler"
)

// FuzzSubmit decodes untrusted submit JSON the way the daemon does and
// submits it into a gcStress session on the 4-chip platform, then
// advances the session a bounded amount of simulated time and drains it
// under a 5 s bound: a request may be refused, but no input may panic.
// The corpus under testdata/fuzz holds a single write larger than the
// whole drive, which once panicked the allocator, an arrival near
// MaxInt64, which once overflowed the clock, and a read with LPN + pages
// past MaxInt64, which once panicked the FTL on Drain.
func FuzzSubmit(f *testing.F) {
	for _, seed := range []string{
		`{"requests":[{"lpn":0,"pages":4}]}`,
		`{"requests":[{"lpn":100,"pages":8,"write":true},{"lpn":100,"pages":8}]}`,
		`{"requests":[{"arrivalNS":5000,"lpn":7,"pages":1,"write":true,"fua":true}]}`,
		`{"requests":[{"lpn":-1,"pages":1},{"lpn":0,"pages":0}]}`,
	} {
		f.Add([]byte(seed))
	}
	// testOptions runs no idle janitor, so the server needs no Close.
	cfg, err := NewServer(testOptions()).sessionCfg(OpenRequest{Chips: 4, GCStress: true}, nil)
	if err != nil {
		f.Fatal(err)
	}
	// Age the drive once as a gcStress open would; every input then
	// hydrates the aged image instead of paying the preconditioning.
	dev, err := sprinkler.New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	dev.Precondition(0.95, 0.5, 0)
	var img bytes.Buffer
	if err := dev.Checkpoint(&img); err != nil {
		f.Fatal(err)
	}
	snap, err := sprinkler.ReadSnapshot(&img)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var sub SubmitRequest
		if json.Unmarshal(data, &sub) != nil {
			return
		}
		sess, err := sprinkler.Open(cfg, sprinkler.WithSnapshot(snap))
		if err != nil {
			t.Fatal(err)
		}
		// A drain cut off by its deadline leaves the session open.
		defer sess.Discard()
		for i, io := range sub.Requests {
			if i == 16 {
				break
			}
			sess.Submit(sprinkler.Request{
				ArrivalNS: io.ArrivalNS,
				Write:     io.Write,
				LPN:       io.LPN,
				Pages:     io.Pages,
				FUA:       io.FUA,
			})
		}
		if err := sess.Advance(int64(2 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		sess.Drain(ctx)
	})
}
