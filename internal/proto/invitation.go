package proto

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// Invitation is what a deployment URL serves — the substitute for the
// browserified worker-code bundle of the JavaScript implementation: it
// names the registered processing function and describes where and how
// to connect (paper Figure 7's HTTP bootstrap step).
type Invitation struct {
	// Version is the protocol version the master speaks.
	Version string `json:"version"`
	// Func is the processing function volunteers must apply.
	Func string `json:"func"`
	// Transport is "ws" for a direct WebSocket-like join or "webrtc"
	// for the signalling bootstrap.
	Transport string `json:"transport"`
	// DataAddr is the address to join: the master's data listener (ws)
	// or the public signalling server (webrtc).
	DataAddr string `json:"dataAddr"`
	// MasterID is the master's peer ID on the signalling server
	// (webrtc only).
	MasterID string `json:"masterId,omitempty"`
}

// FetchInvitation retrieves a deployment invitation from a URL — the
// volunteer-side "opening the URL in the browser" (paper §2.1.2).
func FetchInvitation(url string) (Invitation, error) {
	resp, err := http.Get(url)
	if err != nil {
		return Invitation{}, fmt.Errorf("proto: fetch invitation: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Invitation{}, fmt.Errorf("proto: fetch invitation: status %s", resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return Invitation{}, fmt.Errorf("proto: read invitation: %w", err)
	}
	var inv Invitation
	if err := json.Unmarshal(body, &inv); err != nil {
		return Invitation{}, fmt.Errorf("proto: parse invitation: %w", err)
	}
	if inv.Version != Version {
		return Invitation{}, fmt.Errorf("%w: got %q", ErrBadVersion, inv.Version)
	}
	return inv, nil
}
