#include "sim/link.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace lsl::sim {

Link::Link(Simulator& sim, std::string name, const LinkConfig& config,
           DeliverFn deliver)
    : sim_(sim),
      name_(std::move(name)),
      config_(config),
      deliver_(std::move(deliver)),
      live_{sim.make_rng()},
      checkpoint_(live_) {}

void Link::retire() const {
  const util::SimTime now = sim_.now();
  while (departed_ < slots_.size() && slots_[departed_].depart <= now) {
    const Slot& s = slots_[departed_++];
    queued_bytes_ -= s.bytes;
    ++stats_.packets_sent;
    stats_.bytes_sent += s.bytes;
    if (s.lost) {
      ++stats_.drops_wire;
    } else {
      departed_delivery_ = s.deliver_at;
    }
  }
}

void Link::pop_departed_losses() {
  // unscheduled_ stops only at survivors, so a lost head lies behind it.
  while (departed_ > 0 && slots_[0].lost) {
    slots_.pop_front();
    --departed_;
    --unscheduled_;
  }
}

void Link::send(Packet&& p) {
  retire();
  pop_departed_losses();
  const std::uint32_t size = p.wire_bytes();
  const bool busy = departed_ < slots_.size();
  if (busy && queued_bytes_ + size > config_.queue_bytes) {
    ++stats_.drops_queue;
    return;
  }
  queued_bytes_ += size;
  stats_.max_queue_bytes = std::max(stats_.max_queue_bytes, queued_bytes_);
  busy_until_ = std::max(busy_until_, sim_.now()) +
                config_.rate.transmission_time(size);
  ++accepted_;
  Slot& s = slots_.push_back();
  s.packet = std::move(p);
  s.depart = busy_until_;
  s.bytes = size;
  draw(s);
  schedule_due();
}

bool Link::survives(DrawState& d, util::SimDuration& prop) const {
  bool lost;
  if (config_.gilbert_elliott) {
    // State transition is evaluated per packet, then loss is drawn from the
    // current state's loss probability.
    if (d.ge_bad) {
      if (d.rng.bernoulli(config_.ge_bad_to_good)) d.ge_bad = false;
    } else {
      if (d.rng.bernoulli(config_.ge_good_to_bad)) d.ge_bad = true;
    }
    lost = d.rng.bernoulli(d.ge_bad ? config_.ge_loss_bad
                                    : config_.ge_loss_good);
  } else {
    lost = d.rng.bernoulli(config_.loss_rate);
  }
  if (lost) return false;
  prop = config_.delay;
  if (config_.jitter > 0) {
    prop += static_cast<util::SimDuration>(
        d.rng.uniform(0.0, static_cast<double>(config_.jitter)));
  }
  return true;
}

void Link::draw(Slot& s) {
  util::SimDuration prop;
  s.lost = !survives(live_, prop);
  s.delivery = kInvalidEvent;
  if (s.lost) return;
  // A physical link is FIFO: jitter may stretch delays but never reorder.
  s.deliver_at = std::max(s.depart + prop, last_delivery_);
  last_delivery_ = s.deliver_at;
}

void Link::schedule_due() {
  // The earliest outstanding delivery is the first survivor's, if it has
  // been scheduled.
  util::SimTime next_wake = std::numeric_limits<util::SimTime>::max();
  for (std::size_t i = 0; i < unscheduled_; ++i) {
    if (!slots_[i].lost) {
      next_wake = slots_[i].deliver_at;
      break;
    }
  }
  for (; unscheduled_ < slots_.size(); ++unscheduled_) {
    Slot& s = slots_[unscheduled_];
    if (s.lost) continue;
    // An earlier delivery fires before this packet departs: decide then.
    if (next_wake <= s.depart) return;
    // Delivery times never decrease and equal times fire in scheduling
    // order, so the first packet not yet delivered or lost is this event's.
    s.delivery =
        sim_.events().schedule_at(s.deliver_at, [this] { deliver_next(); });
    next_wake = std::min(next_wake, s.deliver_at);
  }
}

void Link::deliver_next() {
  // The packet arrives after it departed, so everything ahead of it has
  // departed too and only losses stand in front of it.
  retire();
  pop_departed_losses();
  --departed_;
  --unscheduled_;
  Slot head = slots_.pop_front();
  schedule_due();
  deliver_(std::move(head.packet));
}

void Link::set_loss_rate(double p) {
  // Gilbert–Elliott ignores loss_rate, and an unchanged rate redraws the
  // same fates, so neither needs a rewind.
  if (p == config_.loss_rate || config_.gilbert_elliott) {
    config_.loss_rate = p;
    return;
  }
  retire();
  pop_departed_losses();
  const std::size_t first = departed_;
  const std::uint64_t first_seq = accepted_ - (slots_.size() - first);
  // Replay the departed packets' draws under the old rate: that is the
  // state the first packet still in the queue drew from.
  util::SimDuration prop;
  for (; checkpoint_seq_ < first_seq; ++checkpoint_seq_) {
    survives(checkpoint_, prop);
  }
  config_.loss_rate = p;
  live_ = checkpoint_;
  last_delivery_ = departed_delivery_;
  for (std::size_t i = first; i < slots_.size(); ++i) {
    sim_.events().cancel(slots_[i].delivery);
    draw(slots_[i]);
  }
  unscheduled_ = std::min(unscheduled_, first);
  schedule_due();
}

}  // namespace lsl::sim
