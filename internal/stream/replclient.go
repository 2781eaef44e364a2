package stream

// TCPClient half of the replication control plane: ReplicaAppend,
// SetPartitionRole and HighWaterMark over the wire, so a replication
// controller can drive followers on other machines through the same
// ReplicaLink interface the in-process path uses. These are control-plane
// calls (cold relative to produce/fetch), so they use the generic pipeDo
// closure path. A replica that falls out of the leader's retention window
// is rebuilt in process by ReplicaSet.Revive, not over the wire.

// encodeReplicate writes a reqReplicate body (after reset) into enc.
func encodeReplicate(enc *wireEncoder, topicName string, partition int32, epoch, base int64, recs []ReplicaRecord) {
	enc.str(topicName)
	enc.u32(uint32(partition))
	enc.u64(uint64(epoch))
	enc.u64(uint64(base))
	enc.u32(uint32(len(recs)))
	for i := range recs {
		enc.bytes(recs[i].Key)
		enc.bytes(recs[i].Value)
		enc.u64(uint64(recs[i].AppendedAtNs))
	}
}

// ReplicaAppend implements ReplicaLink over the wire. It returns the
// remote follower's new high watermark.
func (c *TCPClient) ReplicaAppend(topicName string, partition int32, epoch, base int64, recs []ReplicaRecord) (int64, error) {
	msgType, dec, err := c.pipeDo(reqReplicate, func(enc *wireEncoder) {
		encodeReplicate(enc, topicName, partition, epoch, base, recs)
	})
	if err != nil {
		return 0, err
	}
	if msgType != respReplicate {
		dec.release()
		return 0, errUnexpectedResponse(msgType)
	}
	hwm := int64(dec.u64())
	err = dec.err
	dec.release()
	return hwm, err
}

// SetPartitionRole implements ReplicaLink over the wire.
func (c *TCPClient) SetPartitionRole(topicName string, partition int32, follower bool, epoch int64, leaderHint string) error {
	_, dec, err := c.pipeDo(reqSetRole, func(enc *wireEncoder) {
		enc.str(topicName)
		enc.u32(uint32(partition))
		if follower {
			enc.byte1(1)
		} else {
			enc.byte1(0)
		}
		enc.u64(uint64(epoch))
		enc.str(leaderHint)
	})
	if err != nil {
		return err
	}
	dec.release()
	return nil
}
