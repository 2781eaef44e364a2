package chaos

import (
	"fmt"
	"time"

	"cad3/internal/stream"
)

// ReplicaLink decorates a stream.ReplicaLink as one named directed link
// (leader -> follower) subject to an Injector's faults — the replication
// analogue of Client. The ReplicaSet controller treats any link error as
// grounds to drop the follower from the ISR, so the wrapper lets chaos
// studies exercise exactly the paths the durability contract depends on:
//
//   - partition: every replication operation fails with ErrLinkDown (the
//     follower falls out of the ISR until the link heals and a Tick
//     re-syncs it);
//   - kill: the operation fails with ErrConnKilled;
//   - drop (ReplicaAppend only): the append is lost in transit — the
//     follower never sees the records and the leader gets no ack, which
//     on a real wire is indistinguishable from a killed connection, so
//     the caller observes ErrConnKilled;
//   - dup (ReplicaAppend only): the append is delivered twice; the
//     second copy overlaps the follower's log and must be skipped
//     idempotently (the wrapper is a standing test of that invariant);
//   - delay: the operation is held for the drawn duration via Sleep.
type ReplicaLink struct {
	// From and To name the link's endpoints (replica IDs). The injector's
	// partition matrix is keyed by these names, shared with Client links.
	From, To string

	inner stream.ReplicaLink
	inj   *Injector

	// Sleep implements injected delays; see Client.Sleep — mandatory when
	// the fault config can draw delays, and a panic otherwise rather than
	// silently re-coupling a deterministic run to the host scheduler.
	Sleep func(time.Duration)
}

var _ stream.ReplicaLink = (*ReplicaLink)(nil)

// NewReplicaLink wraps inner as the directed replication link from -> to
// under inj.
func NewReplicaLink(inj *Injector, from, to string, inner stream.ReplicaLink) *ReplicaLink {
	if inj == nil {
		inj = NewInjector(Config{})
	}
	return &ReplicaLink{From: from, To: to, inner: inner, inj: inj}
}

// apply draws the operation's verdict and handles partition/kill/delay,
// reporting (drop, dup, err) like Client.apply.
func (l *ReplicaLink) apply() (bool, bool, error) {
	d := l.inj.decide(l.From, l.To)
	if d.blocked {
		return false, false, fmt.Errorf("%w: %s -> %s", ErrLinkDown, l.From, l.To)
	}
	if d.kill {
		return false, false, fmt.Errorf("%w: %s -> %s", ErrConnKilled, l.From, l.To)
	}
	if d.delay > 0 {
		if l.Sleep == nil {
			panic("chaos: delay fault drawn on replica link " + l.From + " -> " + l.To +
				" but ReplicaLink.Sleep is nil; inject a (virtual) clock")
		}
		l.Sleep(d.delay)
	}
	return d.drop, d.dup, nil
}

// ReplicaAppend implements stream.ReplicaLink. A dropped append never
// reaches the follower and reports ErrConnKilled (a lost ack); a
// duplicated one is applied twice and reports the second call's high
// watermark — identical to the first's when the follower's overlap skip
// is working.
func (l *ReplicaLink) ReplicaAppend(topicName string, partition int32, epoch, base int64, recs []stream.ReplicaRecord) (int64, error) {
	drop, dup, err := l.apply()
	if err != nil {
		return 0, err
	}
	if drop {
		return 0, fmt.Errorf("%w: %s -> %s (append lost in transit)", ErrConnKilled, l.From, l.To)
	}
	hwm, err := l.inner.ReplicaAppend(topicName, partition, epoch, base, recs)
	if err != nil || !dup {
		return hwm, err
	}
	return l.inner.ReplicaAppend(topicName, partition, epoch, base, recs)
}

// SetPartitionRole implements stream.ReplicaLink. Role pushes are
// control-plane writes: drops and dups do not apply (a role push is
// idempotent and carries no payload to lose), only partition, kill and
// delay.
func (l *ReplicaLink) SetPartitionRole(topicName string, partition int32, follower bool, epoch int64, leaderHint string) error {
	if _, _, err := l.apply(); err != nil {
		return err
	}
	return l.inner.SetPartitionRole(topicName, partition, follower, epoch, leaderHint)
}
