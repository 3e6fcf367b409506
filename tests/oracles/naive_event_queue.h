#pragma once

#include <functional>
#include <queue>
#include <unordered_set>

#include "net/event_queue.h"

namespace themis::net {

/// The pre-calendar implementation: binary heap plus lazy-deletion live set.
/// Kept verbatim as the differential-test oracle and benchmark baseline.
class NaiveEventQueue {
 public:
  EventId push(SimTime time, std::function<void()> fn) {
    const EventId id = next_id_++;
    queue_.push(Event{time, id, std::move(fn)});
    live_.insert(id);
    return id;
  }

  bool cancel(EventId id) { return live_.erase(id) > 0; }

  bool empty() const { return live_.empty(); }
  std::size_t size() const { return live_.size(); }

  SimTime peek_time() {
    skim();
    return queue_.top().time;
  }

  struct Fired {
    SimTime time;
    std::function<void()> fn;
  };
  Fired pop() {
    skim();
    // priority_queue::top() is const; moving out right before pop() is safe.
    Event& top = const_cast<Event&>(queue_.top());
    Fired fired{top.time, std::move(top.fn)};
    live_.erase(top.id);
    queue_.pop();
    return fired;
  }

 private:
  struct Event {
    SimTime time;
    EventId id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;  // FIFO among equal timestamps
    }
  };

  /// Drop cancelled entries sitting on top of the heap.
  void skim() {
    while (!queue_.empty() && !live_.contains(queue_.top().id)) queue_.pop();
  }

  EventId next_id_ = 1;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<EventId> live_;
};

}  // namespace themis::net
