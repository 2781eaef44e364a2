package geo

import (
	"errors"
	"fmt"
	"time"
)

// Journey advances a vehicle along a route of connected segments with
// simple kinematics, reporting its position and the segment transitions
// that trigger RSU handovers. It is the mobility model behind the live
// mesoscopic experiments: the paper emulates vehicle movement by
// migrating producers between RSUs; Journey derives those migrations from
// actual geometry.
type Journey struct {
	net   *Network
	route []SegmentID
	idx   int
	along float64 // meters into the current segment
	done  bool
}

// ErrJourneyDone is returned by Advance after the route is exhausted.
var ErrJourneyDone = errors.New("geo: journey complete")

// NewJourney validates the route (segments must exist and be pairwise
// connected) and starts at the beginning of the first segment.
func NewJourney(net *Network, route []SegmentID) (*Journey, error) {
	if net == nil {
		return nil, fmt.Errorf("geo: journey requires a network")
	}
	if len(route) == 0 {
		return nil, fmt.Errorf("geo: journey requires a route")
	}
	for i, id := range route {
		if net.Segment(id) == nil {
			return nil, fmt.Errorf("geo: journey segment %d unknown", id)
		}
		if i > 0 {
			connected := false
			for _, succ := range net.next[route[i-1]] {
				if succ == id {
					connected = true
					break
				}
			}
			if !connected {
				return nil, fmt.Errorf("geo: route segments %d -> %d not connected", route[i-1], id)
			}
		}
	}
	return &Journey{net: net, route: route}, nil
}

// JourneyStep is the state after one Advance.
type JourneyStep struct {
	// Position is the vehicle's location.
	Position Point
	// Segment is the road currently driven.
	Segment SegmentID
	// AlongMeters is the distance into the segment.
	AlongMeters float64
	// HandoverFrom is nonzero when this step crossed from another
	// segment — the moment the previous RSU should forward the summary.
	HandoverFrom SegmentID
	// Done marks the final step of the route.
	Done bool
}

// Advance moves the vehicle for dt at the given speed, returning the new
// state. Crossing one or more segment boundaries in a single step reports
// the handover from the segment the vehicle occupied before the step.
func (j *Journey) Advance(speedKmh float64, dt time.Duration) (JourneyStep, error) {
	if j.done {
		return JourneyStep{}, ErrJourneyDone
	}
	if speedKmh < 0 {
		speedKmh = 0
	}
	prev := j.route[j.idx]
	j.along += speedKmh / 3.6 * dt.Seconds()
	for {
		seg := j.net.Segment(j.route[j.idx])
		if j.along < seg.LengthMeters() {
			break
		}
		if j.idx == len(j.route)-1 {
			// End of route: clamp to the last point.
			j.along = seg.LengthMeters()
			j.done = true
			break
		}
		j.along -= seg.LengthMeters()
		j.idx++
	}

	cur := j.route[j.idx]
	seg := j.net.Segment(cur)
	step := JourneyStep{
		Position:    seg.PointAt(j.along / seg.LengthMeters()),
		Segment:     cur,
		AlongMeters: j.along,
		Done:        j.done,
	}
	if cur != prev {
		step.HandoverFrom = prev
	}
	return step, nil
}

// Segment returns the segment currently driven.
func (j *Journey) Segment() SegmentID { return j.route[j.idx] }

// Done reports whether the route is exhausted.
func (j *Journey) Done() bool { return j.done }
