//===- core/Type.h - F_G types ----------------------------------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types of F_G (paper Figures 4 and 11): the FG instantiation of the
/// type language in types/Type.h, whose where clauses carry concept
/// requirements and same-type constraints (section 5) and which has
/// associated types c<tau...>.s.
///
/// Concept occurrences in types reference the *concept id* assigned by
/// the parser when the concept declaration was resolved lexically; the
/// name is kept only for display.  This keeps hash-consing sound in the
/// presence of shadowed concept names.
///
/// As in the System F back end, all types are hash-consed and the
/// interner is alpha-aware: pointer equality is alpha-equivalence.
/// Semantic equality modulo same-type constraints is decided separately
/// by the congruence closure (core/Congruence.h).
///
//===----------------------------------------------------------------------===//

#ifndef FG_CORE_TYPE_H
#define FG_CORE_TYPE_H

#include "types/Type.h"

namespace fg {

using types::TypeKind;
using types::TypeParamDecl;
using Type = types::Type<types::FG>;
using IntType = types::IntType<types::FG>;
using BoolType = types::BoolType<types::FG>;
using ParamType = types::ParamType<types::FG>;
using BoundType = types::BoundType<types::FG>;
using ArrowType = types::ArrowType<types::FG>;
using TupleType = types::TupleType<types::FG>;
using ListType = types::ListType<types::FG>;
using ForAllType = types::ForAllType<types::FG>;
using ForAllParts = types::ForAllParts<types::FG>;
using AssocType = types::AssocType<types::FG>;
using ConceptRef = types::ConceptRef<types::FG>;
using TypeEquation = types::TypeEquation<types::FG>;
using TypeSubst = types::TypeSubst<types::FG>;
using TypeContext = types::TypeContext<types::FG>;
using types::allChildren;
using types::conceptRefToString;
using types::mapChildren;
using types::mapParts;
using types::typeToString;

} // namespace fg

#endif // FG_CORE_TYPE_H
