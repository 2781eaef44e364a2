// Package vehicle is the client half of the wireerrexhaustive fixture:
// call sites that handle the round trip's error and match decodable
// sentinels (legal), match a sentinel the decoder cannot produce (dead
// comparison), and discard the error outright (lost redirects).
package vehicle

import (
	"errors"

	"golden/stream"
)

// Reporter publishes warnings through a broker client.
type Reporter struct {
	client *stream.Client
}

// Send handles the error and matches live sentinels: ErrNotLeader is
// decoded from the wire, ErrClientClosed is client-local.
func (r *Reporter) Send(v []byte) error {
	_, _, err := r.client.Produce("warnings", 0, nil, v)
	if errors.Is(err, stream.ErrNotLeader) || errors.Is(err, stream.ErrClientClosed) {
		return nil
	}
	return err
}

// SendDead matches a sentinel remoteError never reconstructs, so the
// comparison can never be true against a wire client.
func (r *Reporter) SendDead(v []byte) error {
	_, _, err := r.client.Produce("warnings", 0, nil, v)
	if errors.Is(err, stream.ErrValueTooLarge) { // want "ErrValueTooLarge never crosses the wire"
		return nil
	}
	return err
}

// FireAndForget drops the round trip's error both ways a call site can.
func (r *Reporter) FireAndForget(v []byte) {
	r.client.Produce("warnings", 0, nil, v)           // want "discards the error from Produce"
	_, _, _ = r.client.Produce("warnings", 0, nil, v) // want "discards the error from Produce"
}

// Ensure returns the error — handled by the caller, no finding.
func (r *Reporter) Ensure() error {
	return r.client.CreateTopic("warnings", 1)
}

// SendBatch walks per-record results. Reading the Err field is not a
// sentinel reference (no finding), whatever it is compared with; the
// sentinel it is compared with still is one.
func (r *Reporter) SendBatch(values [][]byte) error {
	res := make([]stream.BatchResult, len(values))
	if err := r.client.ProduceBatch("warnings", values, res); err != nil {
		return err
	}
	for i := range res {
		if errors.Is(res[i].Err, stream.ErrNotLeader) {
			continue
		}
		if errors.Is(res[i].Err, stream.ErrValueTooLarge) { // want "ErrValueTooLarge never crosses the wire"
			continue
		}
		if res[i].Err != nil {
			return res[i].Err
		}
	}
	return nil
}
