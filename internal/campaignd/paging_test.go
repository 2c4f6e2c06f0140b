package campaignd_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"testing"

	"interferometry/internal/campaignd"
)

// fetchPage GETs one paged CSV request and returns the body plus the
// paging headers.
func fetchPage(t *testing.T, url string) (body []byte, totalRows, nextOffset string, status int) {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err = io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, res.Header.Get("X-Total-Rows"), res.Header.Get("X-Next-Offset"), res.StatusCode
}

// TestResultPagingOvershoot: a page request with offset at or past the
// final row must answer 200 with an empty body — no header row, no
// X-Next-Offset — and still advertise the true X-Total-Rows, so a
// client that overshoots (or polls past the end) appends nothing and
// its concatenated pages stay byte-identical to the blob.
func TestResultPagingOvershoot(t *testing.T) {
	const layouts = 3
	spec := testSpec(layouts)
	_, client := startService(t, campaignd.Config{Workers: 2})
	ctx := context.Background()
	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, client, st.ID); st.State != campaignd.StateDone {
		t.Fatalf("campaign ended %s: %s", st.State, st.Error)
	}

	for _, endpoint := range []string{"result", "measurements"} {
		blob, err := client.Measurements(ctx, st.ID)
		if endpoint == "result" {
			blob, err = client.Result(ctx, st.ID)
		}
		if err != nil {
			t.Fatal(err)
		}
		header := blob[:bytes.IndexByte(blob, '\n')+1]
		for _, tc := range []struct {
			name  string
			query string
		}{
			{"offset at final row", fmt.Sprintf("?offset=%d&limit=2", layouts)},
			{"offset past final row", fmt.Sprintf("?offset=%d&limit=2", layouts+4)},
			{"offset past final row, whole", fmt.Sprintf("?offset=%d", layouts+4)},
		} {
			t.Run(endpoint+"/"+tc.name, func(t *testing.T) {
				url := client.Base + "/campaigns/" + st.ID + "/" + endpoint + tc.query
				body, total, next, status := fetchPage(t, url)
				if status != http.StatusOK {
					t.Fatalf("status = %d, want 200", status)
				}
				if total != fmt.Sprint(layouts) {
					t.Errorf("X-Total-Rows = %q, want %d", total, layouts)
				}
				if next != "" {
					t.Errorf("overshoot page advertised X-Next-Offset %q", next)
				}
				if len(body) != 0 {
					t.Errorf("overshoot page body = %d bytes, want empty (got %q)", len(body), body)
				}
				if bytes.HasPrefix(body, header) {
					t.Errorf("overshoot page repeated the CSV header")
				}
			})
		}

		// A client that pages to the end and then overshoots must still
		// hold exactly the blob.
		var stream bytes.Buffer
		if err := client.StreamCSV(ctx, "/campaigns/"+st.ID+"/"+endpoint, 2, &stream); err != nil {
			t.Fatal(err)
		}
		overshoot, _, _, _ := fetchPage(t, client.Base+"/campaigns/"+st.ID+"/"+endpoint+fmt.Sprintf("?offset=%d&limit=2", layouts))
		stream.Write(overshoot)
		if !bytes.Equal(stream.Bytes(), blob) {
			t.Errorf("%s: streamed pages + overshoot differ from blob (%d vs %d bytes)", endpoint, stream.Len(), len(blob))
		}
	}
}

// TestGenerationsPagingOvershoot is the overshoot pin for the
// generations endpoint, which pages in generation units and serves
// mid-run — so overshooting (polling for generations that have not
// settled yet) is its normal client behavior, not an error.
func TestGenerationsPagingOvershoot(t *testing.T) {
	spec := testSpec(0)
	spec.Kind = campaignd.KindSearch
	spec.Search = &campaignd.SearchSpec{Population: 3, Generations: 2}
	_, client := startService(t, campaignd.Config{Workers: 2})
	ctx := context.Background()
	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, client, st.ID); st.State != campaignd.StateDone {
		t.Fatalf("campaign ended %s: %s", st.State, st.Error)
	}
	blob, err := client.Generations(ctx, st.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	const gens = 2
	for _, tc := range []struct {
		name  string
		query string
	}{
		{"offset at final generation", fmt.Sprintf("?canonical=1&offset=%d&limit=1", gens)},
		{"offset past final generation", fmt.Sprintf("?canonical=1&offset=%d&limit=1", gens+3)},
		{"offset past final generation, whole", fmt.Sprintf("?canonical=1&offset=%d", gens+3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			url := client.Base + "/campaigns/" + st.ID + "/generations" + tc.query
			body, total, next, status := fetchPage(t, url)
			if status != http.StatusOK {
				t.Fatalf("status = %d, want 200", status)
			}
			if total != fmt.Sprint(gens) {
				t.Errorf("X-Total-Rows = %q, want %d", total, gens)
			}
			if next != "" {
				t.Errorf("overshoot page advertised X-Next-Offset %q", next)
			}
			if len(body) != 0 {
				t.Errorf("overshoot page body = %d bytes, want empty (got %q)", len(body), body)
			}
		})
	}

	// Paged-to-the-end plus an overshoot poll must still equal the blob.
	var stream bytes.Buffer
	if err := client.StreamCSV(ctx, "/campaigns/"+st.ID+"/generations?canonical=1", 1, &stream); err != nil {
		t.Fatal(err)
	}
	overshoot, _, _, _ := fetchPage(t, client.Base+"/campaigns/"+st.ID+"/generations"+fmt.Sprintf("?canonical=1&offset=%d&limit=1", gens))
	stream.Write(overshoot)
	if !bytes.Equal(stream.Bytes(), blob) {
		t.Errorf("streamed generations + overshoot differ from blob (%d vs %d bytes)", stream.Len(), len(blob))
	}
}

// TestGenerationsPagingBeforeFirstSettle: the generations endpoint
// serves mid-run, so a tailing client's very first poll — offset 0
// while zero generations have settled — is also "at the final row" and
// must return a byte-empty body. A header row here would be appended
// again by the poll that sees real rows, corrupting the client's
// accumulated CSV. A coordinator with no workers pins total at 0.
func TestGenerationsPagingBeforeFirstSettle(t *testing.T) {
	spec := testSpec(0)
	spec.Kind = campaignd.KindSearch
	spec.Search = &campaignd.SearchSpec{Population: 3, Generations: 2}
	srv, client := startService(t, campaignd.Config{Workers: 0, NoLocalWorkers: true})
	// Nothing will ever execute the campaign, so the graceful drain's
	// generation-settle grace would stall the teardown; hard-stop
	// instead (Kill shares Drain's once, making the later Drain a no-op).
	t.Cleanup(srv.Kill)
	st, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{"?canonical=1&offset=0&limit=1", "?canonical=1", "?offset=0&limit=1"} {
		body, total, next, status := fetchPage(t, client.Base+"/campaigns/"+st.ID+"/generations"+query)
		if status != http.StatusOK {
			t.Fatalf("%s: status = %d, want 200", query, status)
		}
		if total != "0" {
			t.Errorf("%s: X-Total-Rows = %q, want 0", query, total)
		}
		if next != "" {
			t.Errorf("%s: empty trajectory advertised X-Next-Offset %q", query, next)
		}
		if len(body) != 0 {
			t.Errorf("%s: body = %q, want empty (no header before the first settled generation)", query, body)
		}
	}
}
