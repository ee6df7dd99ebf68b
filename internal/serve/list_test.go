package serve_test

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"sprinkler/internal/serve"
	"sprinkler/internal/serve/client"
)

// TestListSessionsSortedByID drives GET /v1/sessions through the client:
// open sessions are listed in ID order whatever order they opened in, and
// a drained session leaves the listing.
func TestListSessionsSortedByID(t *testing.T) {
	opts := serve.DefaultOptions()
	opts.BaseConfig = stressConfig()
	srv := serve.NewServer(opts)
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Close(ctx)
	}()
	c := client.New(ts.URL)
	ctx := context.Background()

	list := func() []string {
		t.Helper()
		resp, err := c.Sessions(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Draining {
			t.Fatal("listing reports draining on a serving daemon")
		}
		ids := []string{}
		for _, info := range resp.Sessions {
			ids = append(ids, info.ID)
		}
		return ids
	}

	sessions := map[string]*client.Session{}
	for _, name := range []string{"beta", "gamma", "alpha"} {
		s, err := c.Open(ctx, serve.OpenRequest{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		sessions[name] = s
	}
	for i := 0; i < 5; i++ {
		if got, want := list(), []string{"alpha", "beta", "gamma"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("listing %d: sessions %v, want %v", i, got, want)
		}
	}
	if _, err := sessions["beta"].Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := list(), []string{"alpha", "gamma"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after draining beta: sessions %v, want %v", got, want)
	}
}
