// Deterministic simulated message transport.
//
// Models the paper's network abstraction: a *multiset* of in-transit
// messages (the trace spec in §6.2 explicitly redefines the network as a
// multiset so resends are observable): any in-transit message may be
// delivered next, with message loss, duplication, asymmetric partitions,
// and per-link latency. All randomness comes from an external
// Rng, so a (seed, schedule) pair reproduces a run exactly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "net/link_filter.h"
#include "util/check.h"
#include "util/rng.h"

namespace scv::net
{
  struct NetworkStats
  {
    uint64_t sent = 0;
    uint64_t delivered = 0;
    uint64_t dropped_partition = 0;
    uint64_t dropped_loss = 0;
    uint64_t dropped_explicit = 0;
    uint64_t duplicated = 0;
  };

  template <class M>
  class SimNetwork
  {
  public:
    struct Envelope
    {
      uint64_t id; // unique per enqueued copy
      NodeId from;
      NodeId to;
      uint64_t sent_at;
      uint64_t deliver_after; // earliest tick at which delivery is allowed
      M payload;
    };

    explicit SimNetwork(uint64_t min_latency = 0, uint64_t max_latency = 0) :
      min_latency_(min_latency),
      max_latency_(max_latency)
    {
      SCV_CHECK(min_latency_ <= max_latency_);
    }

    LinkFilter& links()
    {
      return links_;
    }

    const LinkFilter& links() const
    {
      return links_;
    }

    NetworkStats& stats()
    {
      return stats_;
    }

    /// Enqueues a message, applying partition, loss and duplication faults.
    /// Returns the envelope id, or nullopt if the message was dropped at
    /// send time.
    std::optional<uint64_t> send(
      NodeId from, NodeId to, M payload, uint64_t now, Rng& rng)
    {
      stats_.sent++;
      if (links_.blocked(from, to))
      {
        stats_.dropped_partition++;
        return std::nullopt;
      }
      const LinkFaults faults = links_.faults(from, to);
      if (faults.loss_probability > 0 && rng.chance(faults.loss_probability))
      {
        stats_.dropped_loss++;
        return std::nullopt;
      }
      const uint64_t id = enqueue(from, to, payload, now, rng);
      if (
        faults.duplicate_probability > 0 &&
        rng.chance(faults.duplicate_probability))
      {
        stats_.duplicated++;
        enqueue(from, to, payload, now, rng);
      }
      return id;
    }

    [[nodiscard]] size_t in_flight() const
    {
      return queue_.size();
    }

    [[nodiscard]] const std::deque<Envelope>& pending() const
    {
      return queue_;
    }

    /// Indices of envelopes whose latency has elapsed at `now`.
    [[nodiscard]] std::vector<size_t> deliverable(uint64_t now) const
    {
      std::vector<size_t> out;
      for (size_t i = 0; i < queue_.size(); ++i)
      {
        if (queue_[i].deliver_after <= now)
        {
          out.push_back(i);
        }
      }
      return out;
    }

    /// Removes and returns one deliverable envelope chosen by `rng`;
    /// nullopt when nothing is deliverable. Messages whose source link has
    /// been cut *after* send are dropped at delivery time (a partition
    /// severs in-flight traffic too).
    std::optional<Envelope> deliver_one(uint64_t now, Rng& rng)
    {
      for (;;)
      {
        const std::vector<size_t> ready = deliverable(now);
        if (ready.empty())
        {
          return std::nullopt;
        }
        const size_t pick = ready[rng.below(ready.size())];
        Envelope e = take(pick);
        if (links_.blocked(e.from, e.to))
        {
          stats_.dropped_partition++;
          continue;
        }
        stats_.delivered++;
        return e;
      }
    }

    /// Delivers the envelope with the given id regardless of latency;
    /// used by scripted scenarios for exact schedule control.
    std::optional<Envelope> deliver_id(uint64_t id)
    {
      for (size_t i = 0; i < queue_.size(); ++i)
      {
        if (queue_[i].id == id)
        {
          Envelope e = take(i);
          if (links_.blocked(e.from, e.to))
          {
            stats_.dropped_partition++;
            return std::nullopt;
          }
          stats_.delivered++;
          return e;
        }
      }
      return std::nullopt;
    }

    /// Delivers the oldest in-flight message on the given directed link;
    /// nullopt if none exists or the link is now blocked.
    std::optional<Envelope> deliver_next_on_link(NodeId from, NodeId to)
    {
      for (size_t i = 0; i < queue_.size(); ++i)
      {
        if (queue_[i].from == from && queue_[i].to == to)
        {
          Envelope e = take(i);
          if (links_.blocked(e.from, e.to))
          {
            stats_.dropped_partition++;
            return std::nullopt;
          }
          stats_.delivered++;
          return e;
        }
      }
      return std::nullopt;
    }

    /// Drops one in-flight message by id; returns whether it existed.
    bool drop_id(uint64_t id)
    {
      for (size_t i = 0; i < queue_.size(); ++i)
      {
        if (queue_[i].id == id)
        {
          take(i);
          stats_.dropped_explicit++;
          return true;
        }
      }
      return false;
    }

    /// Drops every in-flight message on a directed link. Returns the count.
    size_t drop_link(NodeId from, NodeId to)
    {
      size_t dropped = 0;
      for (size_t i = queue_.size(); i-- > 0;)
      {
        if (queue_[i].from == from && queue_[i].to == to)
        {
          take(i);
          stats_.dropped_explicit++;
          ++dropped;
        }
      }
      return dropped;
    }

    void clear()
    {
      queue_.clear();
    }

  private:
    uint64_t enqueue(
      NodeId from, NodeId to, const M& payload, uint64_t now, Rng& rng)
    {
      Envelope e;
      e.id = next_id_++;
      e.from = from;
      e.to = to;
      e.sent_at = now;
      e.deliver_after = now +
        (max_latency_ > min_latency_ ?
           rng.between(min_latency_, max_latency_) :
           min_latency_);
      e.payload = payload;
      queue_.push_back(std::move(e));
      return queue_.back().id;
    }

    Envelope take(size_t index)
    {
      Envelope e = std::move(queue_[index]);
      queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(index));
      return e;
    }

    uint64_t min_latency_;
    uint64_t max_latency_;
    LinkFilter links_;
    NetworkStats stats_;
    std::deque<Envelope> queue_;
    uint64_t next_id_ = 1;
  };
}
