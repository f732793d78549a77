package proto

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestFetchInvitationIgnoresOlderBatch: an older master's invitation
// carries a "batch" field that no volunteer reads; it still decodes.
func TestFetchInvitationIgnoresOlderBatch(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"version":"` + Version + `","func":"square","transport":"ws","dataAddr":"h:1","batch":2}`))
	}))
	defer srv.Close()
	inv, err := FetchInvitation(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Invitation{Version: Version, Func: "square", Transport: "ws", DataAddr: "h:1"}); inv != want {
		t.Fatalf("invitation = %+v, want %+v", inv, want)
	}
}
