// glibc's _FORTIFY_SOURCE redirects _longjmp to __longjmp_chk, which aborts
// with "longjmp causes uninitialized stack frame" whenever the target frame
// lies on a different stack than the caller's -- that is, on every fiber
// switch.  Ubuntu's gcc defines it by default at -O1 and above, so it has to
// go before the first system header pulls in <features.h>.
#undef _FORTIFY_SOURCE

#include "sim/fiber.hpp"

#include <ucontext.h>

#include <cassert>
#include <cstdint>
#include <cstdlib>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace nscc::sim {

namespace {

// Announce a stack switch to AddressSanitizer: start_switch just before
// leaving the current stack for [bottom, bottom + bytes), finish_switch
// first thing after landing.  A null `save` in start_switch tells ASan the
// stack being left is dead.  Both compile to nothing without ASan.
inline void start_switch([[maybe_unused]] void** save,
                         [[maybe_unused]] const void* bottom,
                         [[maybe_unused]] std::size_t bytes) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(save, bottom, bytes);
#endif
}

inline void finish_switch([[maybe_unused]] void* save,
                          [[maybe_unused]] const void** old_bottom,
                          [[maybe_unused]] std::size_t* old_bytes) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(save, old_bottom, old_bytes);
#endif
}

}  // namespace

Fiber::Fiber(std::function<void()> body, std::size_t stack_bytes)
    : body_(std::move(body)),
      stack_(new char[stack_bytes]),
      stack_bytes_(stack_bytes) {}

Fiber::~Fiber() { kill(); }

void Fiber::resume() {
  assert(!finished_ && "resuming a finished fiber");
  if (_setjmp(return_context_) != 0) {
    // The fiber yielded or finished.
    finish_switch(caller_fake_stack_, nullptr, nullptr);
    return;
  }
  start_switch(&caller_fake_stack_, stack_.get(), stack_bytes_);
  if (started_) _longjmp(context_, 1);
  started_ = true;
  enter_fresh_stack();
}

void Fiber::enter_fresh_stack() {
  ucontext_t entry;
  getcontext(&entry);
  entry.uc_stack.ss_sp = stack_.get();
  entry.uc_stack.ss_size = stack_bytes_;
  entry.uc_link = nullptr;  // run_body never returns; it jumps back.
  // makecontext only passes ints, so split the `this` pointer in two.
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&entry, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
              static_cast<unsigned>(self >> 32),
              static_cast<unsigned>(self & 0xffffffffu));
#if defined(__SANITIZE_ADDRESS__)
  // setcontext abandons this frame and ASan does not intercept it: clear
  // the frame's redzones as the _longjmp interceptor does for every other
  // switch, or a later call at this depth trips over their stale poison.
  __asan_handle_no_return();
#endif
  setcontext(&entry);
  std::abort();  // setcontext returns only on failure.
}

void Fiber::trampoline(unsigned hi, unsigned lo) {
  const auto self = (static_cast<std::uintptr_t>(hi) << 32) |
                    static_cast<std::uintptr_t>(lo);
  auto* fiber = reinterpret_cast<Fiber*>(self);
  finish_switch(nullptr, &fiber->caller_stack_, &fiber->caller_stack_bytes_);
  fiber->run_body();
}

void Fiber::run_body() {
  try {
    body_();
  } catch (const FiberKilled&) {
    // Normal teardown path: the stack has been unwound.
  }
  finished_ = true;
  // This stack is never entered again, so ASan may drop its fake frames.
  start_switch(nullptr, caller_stack_, caller_stack_bytes_);
  _longjmp(return_context_, 1);
}

void Fiber::yield() {
  if (_setjmp(context_) == 0) {
    start_switch(&fake_stack_, caller_stack_, caller_stack_bytes_);
    _longjmp(return_context_, 1);
  }
  // Resumed: the engine may be on a different stack than last time.
  finish_switch(fake_stack_, &caller_stack_, &caller_stack_bytes_);
  if (killing_) throw FiberKilled{};
}

void Fiber::kill() {
  if (finished_ || !started_) {
    finished_ = true;
    return;
  }
  killing_ = true;
  resume();  // The fiber unwinds via FiberKilled and finishes.
  assert(finished_);
}

}  // namespace nscc::sim
