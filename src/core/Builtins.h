//===- core/Builtins.h - F_G view of the builtin prelude --------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exposes the System F builtin prelude (systemf/Builtins.h) to F_G
/// programs: the F_G types are derived mechanically from the System F
/// types, so the two sides can never drift apart.
///
//===----------------------------------------------------------------------===//

#ifndef FG_CORE_BUILTINS_H
#define FG_CORE_BUILTINS_H

#include "core/Check.h"
#include "core/Type.h"
#include "systemf/Builtins.h"

namespace fg {

/// Converts a closed System F type to the corresponding F_G type, index
/// for index.  Exposed for tests.
const Type *fgTypeFromSf(TypeContext &FgCtx, const sf::Type *T);

/// Registers every builtin of \p P with \p C under its F_G type.
void bindPrelude(Checker &C, TypeContext &FgCtx, const sf::Prelude &P);

} // namespace fg

#endif // FG_CORE_BUILTINS_H
