//===- systemf/Type.h - System F types --------------------------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types of System F, the translation target of F_G (paper Figure 2):
/// the SystemF instantiation of the type language in types/Type.h,
///
///   sigma, tau ::= t | fn(tau...) -> tau | tau x ... x tau | forall t. tau
///
/// extended with the base types int and bool and the builtin `list`
/// constructor.  Its TypeContext builds neither associated types nor
/// where clauses.
///
/// All types are hash-consed by a TypeContext.  Quantified types bind
/// parameters with globally unique ids, and the interner compares and
/// hashes modulo alpha-equivalence, so *pointer equality coincides with
/// alpha-equivalence* everywhere in the compiler.
///
//===----------------------------------------------------------------------===//

#ifndef FG_SYSTEMF_TYPE_H
#define FG_SYSTEMF_TYPE_H

#include "types/Type.h"

namespace fg {
namespace sf {

using types::TypeKind;
using types::TypeParamDecl;
using Type = types::Type<types::SystemF>;
using IntType = types::IntType<types::SystemF>;
using BoolType = types::BoolType<types::SystemF>;
using ParamType = types::ParamType<types::SystemF>;
using BoundType = types::BoundType<types::SystemF>;
using ArrowType = types::ArrowType<types::SystemF>;
using TupleType = types::TupleType<types::SystemF>;
using ListType = types::ListType<types::SystemF>;
using ForAllType = types::ForAllType<types::SystemF>;
using ForAllParts = types::ForAllParts<types::SystemF>;
using TypeSubst = types::TypeSubst<types::SystemF>;
using TypeContext = types::TypeContext<types::SystemF>;
using types::allChildren;
using types::mapChildren;
using types::typeToString;

} // namespace sf
} // namespace fg

#endif // FG_SYSTEMF_TYPE_H
