// Package gateway exposes a fleet.Gateway over TCP: the network face of
// the paper's deployment story, where a long-running portal mediates
// many smart-card subjects against one untrusted store. The protocol is
// deliberately tiny — open-session / query / close-session / stats over
// internal/wire's length-prefixed frames, responses correlated by order
// — and one client multiplexes any number of wire sessions over one
// connection. Serving, draining and framing are wire's, shared with
// dspd; this package keeps its op codes, their dispatch and its types.
//
// A wire session is a cheap binding of a session id to a subject name;
// the expensive state (provisioned cards, cipher contexts, prefetch
// pipelines) lives in the fleet's session pool behind the server, so a
// client connecting, querying and disconnecting does not churn cards.
package gateway

// Wire protocol: internal/wire's framing, reader, client round trip and
// serve loop; this file holds only the gateway's op codes, its frame
// limit and its error type.
const (
	// opOpen binds a session id to a subject: request is the subject
	// name; response is the new session id (uvarint).
	opOpen = 1
	// opQuery runs one pull query: request is session id, docID, query
	// expression; response is document version, blocks fetched, blocks
	// wasted (uvarints) and the result XML as the rest of the frame.
	opQuery = 2
	// opClose releases a session id; the pooled card state stays warm in
	// the fleet for the subject's next session.
	opClose = 3
	// opStats asks for the daemon's observability snapshot; the response
	// body is a JSON Snapshot.
	opStats = 4
)

// maxFrame bounds a single message: far above any authorized view this
// system produces, low enough to stop hostile length prefixes.
const maxFrame = 16 << 20

// ServerError is an error the gateway reported about a request (unknown
// session, rate limit, refused subject, …). The connection that carried
// it is still healthy.
type ServerError string

func (e ServerError) Error() string { return "gateway: server: " + string(e) }

// serverError is the FrameConn.RoundTrip hook that types a StatusErr reply.
func serverError(msg []byte) error { return ServerError(msg) }
