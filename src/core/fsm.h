#ifndef HYPERQ_CORE_FSM_H_
#define HYPERQ_CORE_FSM_H_

#include <functional>
#include <map>
#include <utility>

#include "common/status.h"
#include "common/strings.h"

namespace hyperq {

/// Immutable transition table shared by every Fsm instance built over it.
/// The per-connection state machines of the event-driven front end create
/// one Fsm per socket; sharing the table keeps each instance to a couple
/// of words instead of a full transition map, which is what makes an FSM
/// per idle connection affordable at C100K scale.
template <typename State, typename Event>
class TransitionTable {
 public:
  using Callback = std::function<Status()>;

  explicit TransitionTable(const char* name = "fsm") : name_(name) {}

  /// Registers `from --event--> to` running `cb` (may be null). Callbacks
  /// in a shared table must not capture per-connection state.
  void Add(State from, Event event, State to, Callback cb = nullptr) {
    transitions_[{from, event}] = {to, std::move(cb)};
  }

  const char* name() const { return name_; }

 private:
  template <typename S, typename E>
  friend class Fsm;

  struct Transition {
    State to;
    Callback callback;
  };

  const char* name_;
  std::map<std::pair<State, Event>, Transition> transitions_;
};

/// Finite State Machine as described for the Cross Compiler (§3.4): each
/// connection's protocol translator keeps its state as an FSM; firing an
/// event runs the transition's callback and advances the state, giving the
/// re-entrant, callback-driven structure the paper attributes to XC. The
/// machine borrows an immutable shared table, so an instance is a couple
/// of words however long its connection lives.
template <typename State, typename Event>
class Fsm {
 public:
  using Table = TransitionTable<State, Event>;

  Fsm(State initial, const Table* table) : state_(initial), table_(table) {}

  State state() const { return state_; }

  /// Fires an event: rejects undefined transitions (protocol violations),
  /// otherwise runs the callback and commits the new state. A failing
  /// callback leaves the machine in the source state.
  Status Fire(Event event) {
    auto it = table_->transitions_.find({state_, event});
    if (it == table_->transitions_.end()) {
      return ProtocolError(StrCat(table_->name_, ": event ",
                                  static_cast<int>(event),
                                  " is invalid in state ",
                                  static_cast<int>(state_)));
    }
    if (it->second.callback) {
      HQ_RETURN_IF_ERROR(it->second.callback());
    }
    state_ = it->second.to;
    return Status::OK();
  }

 private:
  State state_;
  const Table* table_;
};

}  // namespace hyperq

#endif  // HYPERQ_CORE_FSM_H_
