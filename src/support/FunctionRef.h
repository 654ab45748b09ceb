//===- FunctionRef.h - Non-owning callable reference ------------*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// FunctionRef<R(Args...)>: a two-word, non-owning reference to a callable,
/// in the manner of llvm::function_ref. Unlike std::function it never
/// allocates, so passing a capturing lambda down a call chain costs nothing
/// on the host heap. The referenced callable must outlive every call made
/// through the reference — pass it down, never store it past the callee.
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_SUPPORT_FUNCTIONREF_H
#define GDSE_SUPPORT_FUNCTIONREF_H

#include <cstdint>
#include <type_traits>
#include <utility>

namespace gdse {

template <typename Fn> class FunctionRef;

template <typename Ret, typename... Params> class FunctionRef<Ret(Params...)> {
  Ret (*Callback)(intptr_t Callable, Params... Ps) = nullptr;
  intptr_t Callable = 0;

  template <typename Callee>
  static Ret callbackFn(intptr_t Callable, Params... Ps) {
    return (*reinterpret_cast<Callee *>(Callable))(
        std::forward<Params>(Ps)...);
  }

public:
  FunctionRef() = default;

  template <typename Callee,
            typename = std::enable_if_t<!std::is_same<
                std::remove_cv_t<std::remove_reference_t<Callee>>,
                FunctionRef>::value>>
  FunctionRef(Callee &&C)
      : Callback(callbackFn<std::remove_reference_t<Callee>>),
        Callable(reinterpret_cast<intptr_t>(&C)) {}

  Ret operator()(Params... Ps) const {
    return Callback(Callable, std::forward<Params>(Ps)...);
  }
};

} // namespace gdse

#endif // GDSE_SUPPORT_FUNCTIONREF_H
