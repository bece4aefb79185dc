package netnode

// The membership admin API, mounted on the obs admin surface
// (obs.AdminConfig.Routes) so operators drive joins, leaves, and drains
// on the same management port they scrape:
//
//	GET  /admin/peers        membership table, epoch, drain state
//	GET  /admin/resident     resident document URLs (replication audit)
//	GET  /admin/digests      digest generations, freshness, transfer stats
//	POST /admin/peers/join   {"icp","http","name","admin"} — admit a member
//	POST /admin/peers/leave  {"peer"} — remove by ring name or fetch addr
//	POST /admin/peers/drain  hand off this node's copies; returns report

import (
	"encoding/json"
	"net"
	"net/http"
)

// AdminRoutes returns the node's membership admin handlers keyed by
// pattern, for mounting on an http.ServeMux.
func (n *Node) AdminRoutes() map[string]http.Handler {
	return map[string]http.Handler{
		"/admin/peers":       http.HandlerFunc(n.handlePeers),
		"/admin/resident":    http.HandlerFunc(n.handleResident),
		"/admin/digests":     http.HandlerFunc(n.handleDigests),
		"/admin/peers/join":  http.HandlerFunc(n.handleJoin),
		"/admin/peers/leave": http.HandlerFunc(n.handleLeave),
		"/admin/peers/drain": http.HandlerFunc(n.handleDrain),
	}
}

// membershipView is the GET /admin/peers body (also returned by join and
// leave, so the caller sees the topology its change produced).
type membershipView struct {
	Self     string         `json:"self"`
	Epoch    int64          `json:"epoch"`
	Draining bool           `json:"draining"`
	Members  []MemberStatus `json:"members"`
}

func (n *Node) currentView() membershipView {
	return membershipView{
		Self:     n.cfg.HashName,
		Epoch:    n.Epoch(),
		Draining: n.Draining(),
		Members:  n.Members(),
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeAdminErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (n *Node) handlePeers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, n.currentView())
}

func (n *Node) handleDigests(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, n.DigestReport())
}

func (n *Node) handleJoin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var body struct {
		ICP   string `json:"icp"`
		HTTP  string `json:"http"`
		Name  string `json:"name"`
		Admin string `json:"admin"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeAdminErr(w, http.StatusBadRequest, err)
		return
	}
	udp, err := net.ResolveUDPAddr("udp", body.ICP)
	if err != nil {
		writeAdminErr(w, http.StatusBadRequest, err)
		return
	}
	// The fetch address is dialled and becomes the peer's metric label.
	if _, err := net.ResolveTCPAddr("tcp", body.HTTP); err != nil {
		writeAdminErr(w, http.StatusBadRequest, err)
		return
	}
	if err := n.AddPeer(Peer{ICP: udp, HTTP: body.HTTP, Name: body.Name, Admin: body.Admin}); err != nil {
		writeAdminErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, n.currentView())
}

func (n *Node) handleLeave(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var body struct {
		Peer string `json:"peer"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeAdminErr(w, http.StatusBadRequest, err)
		return
	}
	if err := n.RemovePeer(body.Peer); err != nil {
		writeAdminErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, n.currentView())
}

// handleResident lists the URLs this node currently caches — the raw
// input for the group replication-factor audit (eacctl intersects every
// member's list to count copies per document). The list is a snapshot,
// not a consistent cut; it is meant for auditing placement behaviour,
// not for routing.
func (n *Node) handleResident(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	urls := n.store.URLs()
	writeJSON(w, http.StatusOK, struct {
		Node      string   `json:"node"`
		Documents int      `json:"documents"`
		URLs      []string `json:"urls"`
	}{Node: n.cfg.ID, Documents: len(urls), URLs: urls})
}

func (n *Node) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, n.DrainHandoff())
}
