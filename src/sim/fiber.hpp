// Cooperative fibers for process-oriented simulation.
//
// Each simulated processor runs as a fiber so the event engine can suspend
// it at blocking points (message receive, Global_Read, barrier) and resume
// it at a later virtual time.  Exactly one fiber runs at a time, which also
// makes every simulation single-threaded and deterministic.
//
// A fiber's stack is a plain heap block (no guard page).  makecontext and
// setcontext are used once, to enter that fresh stack on the first resume();
// every later switch in either direction, and the final return when the
// body finishes, is a _setjmp/_longjmp pair.  glibc's swapcontext saves and
// restores the signal mask with a syscall on every switch; _longjmp does
// not, which makes a switch several times cheaper.
// Under AddressSanitizer every switch is announced with the sanitizer's
// fiber-switch hooks so it tracks which stack is live.
#pragma once

#include <csetjmp>
#include <cstddef>
#include <functional>
#include <memory>

namespace nscc::sim {

/// Thrown inside a fiber to unwind its stack when the engine is destroyed
/// before the fiber body has finished.  Fiber bodies must let it propagate.
struct FiberKilled {};

class Fiber {
 public:
  static constexpr std::size_t kDefaultStackBytes = 512 * 1024;

  explicit Fiber(std::function<void()> body,
                 std::size_t stack_bytes = kDefaultStackBytes);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Transfer control from the caller (the engine) into the fiber.  Returns
  /// when the fiber calls yield() or its body finishes.
  void resume();

  /// Transfer control from inside the fiber back to the engine.  Must only
  /// be called from within the fiber body.  Throws FiberKilled if the fiber
  /// is being torn down.
  void yield();

  [[nodiscard]] bool finished() const noexcept { return finished_; }

  /// Resume the fiber one last time with the kill flag set, so its stack
  /// unwinds via FiberKilled.  No-op when already finished.
  void kill();

 private:
  static void trampoline(unsigned hi, unsigned lo);
  [[noreturn]] void enter_fresh_stack();
  [[noreturn]] void run_body();

  std::function<void()> body_;
  std::unique_ptr<char[]> stack_;
  std::size_t stack_bytes_;
  std::jmp_buf context_{};         ///< Where the suspended fiber continues.
  std::jmp_buf return_context_{};  ///< Where resume() returns to.
  // AddressSanitizer bookkeeping (unused otherwise): the fake-stack handles
  // of both sides and the bounds of the stack that last resumed the fiber.
  void* fake_stack_ = nullptr;
  void* caller_fake_stack_ = nullptr;
  const void* caller_stack_ = nullptr;
  std::size_t caller_stack_bytes_ = 0;
  bool started_ = false;
  bool finished_ = false;
  bool killing_ = false;
};

}  // namespace nscc::sim
