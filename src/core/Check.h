//===- core/Check.h - F_G typechecker and translator ------------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The type-directed translation from F_G to System F — the paper's
/// central technical artifact (Figures 8, 9, 12, 13).  Checking and
/// translation are one pass, exactly as in the paper's judgement
///
///     Gamma |- e : tau  ~~>  f
///
/// which assigns an F_G type tau and simultaneously produces the System F
/// term f in which concepts have been compiled away:
///
///  * a model declaration becomes a let-bound *dictionary* (a tuple of
///    the refinement dictionaries followed by the member values, Fig 7);
///  * a generic function takes one extra value parameter per where-clause
///    requirement (its dictionary) and one extra *type* parameter per
///    associated type reachable from the where clause (section 5.2);
///  * instantiation looks up the required models in the lexical scope
///    and passes the dictionaries and the associated-type
///    representatives;
///  * member access c<tau>.x becomes a chain of tuple projections along
///    the refinement path (the paper's b function).
///
/// Type equality throughout is the congruence closure of the same-type
/// constraints in scope (section 5.1), provided by core/Congruence.h.
///
//===----------------------------------------------------------------------===//

#ifndef FG_CORE_CHECK_H
#define FG_CORE_CHECK_H

#include "core/AST.h"
#include "core/Congruence.h"
#include "core/Type.h"
#include "support/Diagnostics.h"
#include "systemf/Term.h"
#include "systemf/Type.h"
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace fg {

/// Result of checking (and translating) one F_G term.
struct Checked {
  const Type *Ty = nullptr;       ///< F_G type; null on error.
  const sf::Term *Sf = nullptr;   ///< Translated System F term.
  /// The System F image of Ty (Figures 8/12) — what Theorem 2 says the
  /// translated term must have.  Computed by Checker::check() for
  /// top-level programs; null when unavailable (errors, or module
  /// export probes whose type deliberately leaks concepts).
  const sf::Type *SfTy = nullptr;

  bool ok() const { return Ty != nullptr; }
};

/// Everything the checker knows about a declared concept (rule CPT).
struct ConceptInfo {
  unsigned Id = 0;
  std::string Name;
  std::vector<TypeParamDecl> Params;
  std::vector<AssocTypeDecl> Assocs;
  std::vector<ConceptRef> Refines;    ///< Args over Params/Assocs ids.
  std::vector<ConceptMember> Members; ///< Types over Params/Assocs ids.
  std::vector<TypeEquation> Equations;
};

/// A model in scope: how to reach its dictionary in the translation.
struct ModelRecord {
  unsigned ConceptId = 0;
  std::vector<const Type *> Args;
  std::string DictVar;        ///< System F variable holding a dictionary.
  std::vector<unsigned> Path; ///< Projection path from DictVar.

  /// A *virtual* record stands for the model currently being declared
  /// while one of its default member bodies is checked (section-6
  /// extension).  Its dictionary does not exist yet; own members resolve
  /// to the let-bound member variables instead.
  bool Virtual = false;
  std::unordered_map<std::string, std::string> MemberVars;

  /// Parameterized models (section-6 extension): pattern variables over
  /// Args, the model's own where clause, and its associated-type
  /// bindings (types over the pattern variables).  The dictionary
  /// variable then holds a dictionary *function*
  ///   /\ params, slots. \ requirement dicts. dictionary.
  std::vector<TypeParamDecl> Params;
  std::vector<ConceptRef> Requirements;
  std::vector<TypeEquation> Equations;
  std::vector<std::pair<std::string, const Type *>> AssocBindings;

  bool isParameterized() const { return !Params.empty(); }
};

/// Outcome of resolving a model for a (concept, arguments) query:
/// which record matched and, for parameterized models, how its pattern
/// variables were bound.
struct ModelResolution {
  int Index = -1;     ///< Into the checker's model stack; -1 = not found.
  TypeSubst Binding;  ///< Pattern variable id -> matched type.

  bool found() const { return Index >= 0; }
};

/// The F_G typechecker/translator.
///
/// A Checker is bound to one F_G TypeContext (source types), one System F
/// TypeContext/TermArena (target), and a DiagnosticEngine.  Globals
/// (builtins) are registered with bindGlobal() before check().
class Checker {
public:
  Checker(TypeContext &FgCtx, sf::TypeContext &SfCtx, sf::TermArena &SfArena,
          DiagnosticEngine &Diags);

  /// Registers a global (builtin) binding available to every program.
  /// The translated code refers to it by the same name.
  void bindGlobal(const std::string &Name, const Type *FgTy);

  /// Checks and translates \p Program.  On failure, diagnostics are in
  /// the DiagnosticEngine and the result's Ty is null.
  Checked check(const Term *Program);

  /// Translates an F_G type to its System F image (Figures 8 and 12);
  /// exposed for tests.  Must be called while the relevant scope is
  /// active, or on a closed type.
  const sf::Type *sfTypeOf(const Type *T, SourceLocation Loc);

  /// Toggles the memoized model-resolution cache (and the congruence
  /// query cache beneath it).  On by default.  Must be semantics-
  /// neutral: cache-on and cache-off runs produce identical diagnostics
  /// and translations — ModelCacheTest enforces this over the whole
  /// example corpus.
  void setModelCacheEnabled(bool On);

  /// Disables the rule-CPT side condition that a concept id must not
  /// occur in its body's result type.  A module's export probe *means*
  /// to leak its concepts — importers receive the full declarations
  /// through the interface, so the escaping ids stay meaningful.  Off
  /// (i.e. the check is enforced) by default.
  void setAllowConceptEscape(bool On) { AllowConceptEscape = On; }

  //===--------------------------------------------------------------===//
  // Module-interface imports (src/modules)
  //===--------------------------------------------------------------===//
  //
  // Separate compilation checks a module against the *interfaces* of
  // its imports instead of their bodies.  The module loader replays an
  // interface into the checker through the three bind* entry points
  // below before check() runs; like bindGlobal(), everything they
  // install survives across check() calls on the same checker.

  /// Registers a concept declared in another module.  \p Info must use
  /// ids minted from this checker's F_G TypeContext (the loader remaps
  /// serialized ids on instantiation).
  void declareConcept(ConceptInfo Info);

  /// Non-diagnosing concept lookup, for interface serialization.
  const ConceptInfo *findConcept(unsigned Id) const;

  /// Makes an imported type alias `Name == Target` ambient: the alias
  /// parameter becomes permanently in scope and the congruence closure
  /// learns the defining equation, exactly as a `type t = tau in ...`
  /// wrapper around the whole program would.
  void bindImportedAlias(unsigned ParamId, const std::string &Name,
                         const Type *Target);

  /// A model reconstructed from a module interface: the record (over
  /// remapped ids) plus its name, if it was a named model.
  struct ImportedModel {
    ModelRecord Record;
    std::optional<std::string> Name;
  };

  /// Registers an imported model so importers resolve it like any model
  /// in an enclosing scope.  Returns the System F type of the free
  /// dictionary variable \p M.Record.DictVar that translated importers
  /// will reference (a dictionary tuple, or for parameterized models a
  /// dictionary-function type mirroring checkModelDecl's term shape);
  /// null after diagnosing.
  const sf::Type *bindImportedModel(const ImportedModel &M);

  class ScopeRAII;

private:
  friend class ScopeRAII;

  //===--------------------------------------------------------------===//
  // Scope management
  //===--------------------------------------------------------------===//

  /// Snapshot of every scoped table, for cheap save/restore.
  struct ScopeMark {
    size_t VarEnvSize;
    size_t ModelsSize;
    Congruence::Mark CCMark;
    std::vector<std::pair<unsigned, std::optional<const sf::Type *>>>
        ShadowedParams;
  };

  ScopeMark enterScope();
  void exitScope(const ScopeMark &M);
  void bindParamInScope(ScopeMark &M, unsigned Id, const sf::Type *SfTy);
  /// A forall as the checker opens it: at parameters of its own, fresh
  /// the first time and the same ones each time after, as a forall's
  /// stored ids were.  So when translation reaches a forall again while
  /// it is in that forall (through a same-type constraint), it meets the
  /// same associated types, and the cycle guards stop it; and each
  /// forall is opened once.
  struct OpenedForAll {
    std::vector<TypeParamDecl> Params;
    ForAllParts Parts;
  };
  const OpenedForAll &openForAll(const ForAllType *F);
  /// Enters \p F: binds its own parameters in \p Scope and returns its
  /// opened where clause and body.  With \p SfParams, each parameter is
  /// bound to a fresh System F parameter appended there.
  const ForAllParts &enterForAll(const ForAllType *F, ScopeMark &Scope,
                                 std::vector<sf::TypeParamDecl> *SfParams);

  //===--------------------------------------------------------------===//
  // Core judgement
  //===--------------------------------------------------------------===//

  Checked checkTerm(const Term *T);
  Checked checkConceptDecl(const ConceptDeclTerm *T);
  Checked checkModelDecl(const ModelDeclTerm *T);
  Checked checkTyAbs(const TyAbsTerm *T);
  Checked checkTyApp(const TyAppTerm *T);
  Checked checkMemberAccess(const MemberAccessTerm *T);
  Checked checkTypeAlias(const TypeAliasTerm *T);
  Checked checkUseModel(const UseModelTerm *T);

  /// Checks the default body of concept member \p CM against the model
  /// being declared (\p T, with parameter/associated-type substitution
  /// \p S), including the comparison against \p Expected, which must
  /// happen while the concept parameters are still identified with the
  /// model's assignments.  \p MemberVars maps the members already
  /// defined to their let-bound System F variables; the default may use
  /// exactly those.
  Checked checkDefaultMember(
      const ConceptInfo &Info, const ConceptMember &CM, const TypeSubst &S,
      const Type *Expected, const ModelDeclTerm *T,
      const std::unordered_map<std::string, std::string> &MemberVars);

  //===--------------------------------------------------------------===//
  // Where-clause machinery (the paper's bw / bm / ba / b functions)
  //===--------------------------------------------------------------===//

  /// One associated type reachable from a where clause: the concept it
  /// belongs to, the concept arguments, and its name.
  struct AssocSlot {
    unsigned ConceptId;
    std::vector<const Type *> Args;
    std::string Name;
  };

  /// Enumerates the associated-type slots of a requirement list in the
  /// deterministic order shared by abstraction (TABS) and instantiation
  /// (TAPP): requirements left to right, at each concept its own assocs
  /// in declaration order, then refinements depth-first; diamonds are
  /// visited once (paper section 5.2).  \p Keys are the requirements as
  /// abstraction saw them, and \p Reqs the same ones instantiated:
  /// diamonds are found on \p Keys, so that an instantiation that makes
  /// two slots alike still fills both, and slots come from \p Reqs.
  std::vector<AssocSlot>
  collectAssocSlots(const std::vector<ConceptRef> &Reqs,
                    const std::vector<ConceptRef> &Keys);

  /// Result of processing a where clause at a binder.
  struct WhereInfo {
    /// Extra System F type parameters, one per associated-type slot.
    std::vector<sf::TypeParamDecl> AssocParams;
    /// The fresh F_G parameter introduced for each slot together with
    /// the qualified associated type it stands for; TABS substitutes
    /// these back so the resulting forall type stays closed.
    std::vector<std::pair<unsigned, const Type *>> SlotParams;
    /// One dictionary binding (variable name, dictionary type) per
    /// top-level requirement.
    std::vector<std::pair<std::string, const sf::Type *>> Dicts;
    bool Ok = false;
  };

  /// Processes a where clause inside an already-entered scope:
  /// wf-checks requirements sequentially, introduces fresh associated
  /// type parameters with their defining equations, registers proxy
  /// models (the paper's bw/bm), asserts same-type constraints, and
  /// computes each requirement's dictionary type.
  WhereInfo processWhereClause(ScopeMark &Scope,
                               const std::vector<ConceptRef> &Reqs,
                               const std::vector<TypeEquation> &Eqs,
                               SourceLocation Loc);

  /// Pass 1 of where-clause processing for one requirement: creates the
  /// fresh associated-type parameters with their defining equations,
  /// registers proxy models for \p Ref and its refinements (the paper's
  /// bm), and asserts the concepts' own same-type constraints.  \p Path
  /// locates the sub-dictionary within \p DictVar.
  bool registerRequirement(const ConceptRef &Ref, const std::string &DictVar,
                           std::vector<unsigned> Path, SourceLocation Loc);

  /// Pass 3: computes the System F dictionary type of a requirement
  /// (a nested tuple: refinement dictionaries, then member types).
  /// Runs after all models and equations are in scope so that member
  /// types translate to class representatives (paper Figure 12).
  const sf::Type *computeDictType(const ConceptRef &Ref, SourceLocation Loc);

  /// Finds a member (own or inherited) of concept \p ConceptId
  /// instantiated at \p Args; on success sets \p TyOut to its
  /// substituted F_G type and \p PathOut to the projection path within
  /// the concept's dictionary (the paper's b).
  bool findMember(unsigned ConceptId, const std::vector<const Type *> &Args,
                  const std::string &Member, const Type *&TyOut,
                  std::vector<unsigned> &PathOut);

  /// Resolves a model for (ConceptId, Args), considering both ground
  /// models (equality modulo the congruence closure) and parameterized
  /// models (one-way matching of the argument patterns).  On a
  /// parameterized match, the model's instantiated associated-type
  /// equations are asserted into the congruence closure (scoped to the
  /// current scope) so subsequent type translation resolves them.
  ModelResolution resolveModel(unsigned ConceptId,
                               const std::vector<const Type *> &Args);

  /// Builds the System F dictionary expression for a resolution.  For a
  /// parameterized model this instantiates the dictionary function and
  /// recursively resolves its requirements; \p Depth guards against
  /// non-terminating model recursion.  Returns null after diagnosing.
  const sf::Term *buildModelDict(const ModelResolution &R,
                                 SourceLocation Loc, unsigned Depth = 0);

  /// One-way matching of a model argument pattern against a query type:
  /// pattern variables (members of \p PatternVars) bind, everything else
  /// must be equal modulo the congruence closure.  Extends \p Binding.
  bool matchType(const Type *Pattern, const Type *Query,
                 const std::unordered_set<unsigned> &PatternVars,
                 TypeSubst &Binding);

  /// Builds the substitution {params -> Args, assocs -> c<Args>.s} for a
  /// concept instantiated at \p Args (the paper's ba plus t->tau).
  TypeSubst conceptSubst(const ConceptInfo &Info,
                         const std::vector<const Type *> &Args);

  //===--------------------------------------------------------------===//
  // Types
  //===--------------------------------------------------------------===//

  /// Well-formedness: parameters in scope, concepts known with correct
  /// arity, and — per the paper's TYASC rule — associated types only
  /// where a model is in scope.
  bool checkTypeWellFormed(const Type *T, SourceLocation Loc);

  const sf::Type *sfTypeOfImpl(const Type *T, SourceLocation Loc);
  /// sfTypeOfImpl's forall case, apart so that the frames of its
  /// recursion through other kinds stay small.
  const sf::Type *sfTypeOfForAll(const ForAllType *F, SourceLocation Loc);

  /// Decides Gamma |- A = B.
  bool typesEqual(const Type *A, const Type *B) { return CC.isEqual(A, B); }

  /// The class representative, with concrete structure preferred.
  const Type *representative(const Type *T) {
    return CC.getRepresentative(T);
  }

  /// Rewrites \p T replacing every associated type that the congruence
  /// closure can resolve with its representative.  Called when a model
  /// scope closes, so result types do not dangle on equations that are
  /// about to be rolled back.
  const Type *resolveAssocs(const Type *T);

  //===--------------------------------------------------------------===//
  // Utilities
  //===--------------------------------------------------------------===//

  //===--------------------------------------------------------------===//
  // Model-resolution memoization
  //===--------------------------------------------------------------===//
  //
  // Resolving a model walks the whole model stack comparing argument
  // types up to the congruence closure — the hot path of rules TAPP and
  // MEM (every instantiation and member access).  Queries repeat
  // heavily (the same `C<int>` is looked up once per use site), so
  // resolveModel memoizes on (concept id, canonicalized argument types).
  //
  // Validity: a cached answer depends on (a) the model stack and (b)
  // the congruence closure's knowledge.  The table therefore carries a
  // stamp (ModelStackVersion, CC.getVersion()) and is flushed on the
  // first query after either moves — model-scope entry/exit bumps the
  // former, merges and merge-undoing rollbacks bump the latter.
  //
  // Semantic neutrality: only side-effect-free results are cached.  A
  // parameterized-model match publishes associated-type equations into
  // the closure, so those results always re-run; ground hits and
  // not-found results are pure.  Results computed while the closure
  // advanced mid-scan are returned but not stored.

  /// Concept id plus canonicalized argument types.  Canonical forms
  /// make congruence-equal queries collide (hash-consing makes the
  /// comparison pointer-wise).
  struct ModelQueryKey {
    unsigned ConceptId = 0;
    std::vector<const Type *> Args;

    friend bool operator==(const ModelQueryKey &A, const ModelQueryKey &B) {
      return A.ConceptId == B.ConceptId && A.Args == B.Args;
    }
  };
  struct ModelQueryKeyHash {
    size_t operator()(const ModelQueryKey &K) const;
  };

  /// Clears the memo table if the stamp it was filled under no longer
  /// matches the world.
  void flushModelCachesIfStale();

  /// Every mutation of the Models stack must pass through here (or bump
  /// ModelStackVersion itself) so cached indices never dangle.
  void noteModelsChanged() { ++ModelStackVersion; }

  //===--------------------------------------------------------------===//
  // Utilities
  //===--------------------------------------------------------------===//

  Checked error(SourceLocation Loc, std::string Message);
  std::string freshDictVar(const std::string &ConceptName);
  const sf::Term *projectPath(const sf::Term *Base,
                              const std::vector<unsigned> &Path);
  const ConceptInfo *getConcept(unsigned Id, SourceLocation Loc);

  //===--------------------------------------------------------------===//
  // State
  //===--------------------------------------------------------------===//

  TypeContext &FgCtx;
  sf::TypeContext &SfCtx;
  sf::TermArena &SfArena;
  DiagnosticEngine &Diags;
  Congruence CC;

  /// Term variables: name -> F_G type (the System F side uses the same
  /// names, so no separate table is needed).
  std::vector<std::pair<std::string, const Type *>> VarEnv;
  size_t NumGlobals = 0;

  /// The prefix of Models installed by bindImportedModel; check()
  /// truncates to here instead of clearing.
  size_t NumGlobalModels = 0;

  /// Type parameters in scope: F_G param id -> System F image (null for
  /// parameters that are only resolvable through the congruence closure,
  /// e.g. concept parameters at declaration time and type aliases).
  std::unordered_map<unsigned, const sf::Type *> ParamsInScope;

  /// Imported aliases (bindImportedAlias): re-seeded into ParamsInScope
  /// at every check().
  std::unordered_map<unsigned, const sf::Type *> GlobalParams;

  /// All concepts ever declared (ids are globally unique).
  std::unordered_map<unsigned, ConceptInfo> Concepts;

  /// Models in scope, innermost last.
  std::vector<ModelRecord> Models;

  /// Named models (section-6 extension): declared but not ambient until
  /// activated with `use`.
  struct NamedModel {
    ModelRecord Record;
    std::vector<TypeEquation> AssocEquations;
  };
  std::unordered_map<std::string, NamedModel> NamedModels;

  /// Named models installed by bindImportedModel: re-seeded into
  /// NamedModels at every check().
  std::unordered_map<std::string, NamedModel> ImportedNamedModels;

  /// Guards against cyclic same-type constraints during translation.
  std::unordered_set<const Type *> TranslationInProgress;

  /// Every forall the checker has opened (openForAll).
  std::unordered_map<const ForAllType *, OpenedForAll> OpenedForAlls;

  /// Active where-clause processing state (slot dedup and output lists);
  /// null outside processWhereClause.
  struct WhereState;
  WhereState *CurWhere = nullptr;

  /// True while checking the declarations of a concept body, where
  /// associated-type references are checked structurally (no model can
  /// be in scope yet for the concept's own parameters).
  bool InConceptDecl = false;

  unsigned NextDictId = 0;

  /// Model-resolution memoization state (see the section above).
  /// ResolveCache backs resolveModel; values are indices into Models, -1
  /// for "no model".
  bool ModelCacheEnabled = true;
  /// See setAllowConceptEscape().
  bool AllowConceptEscape = false;
  uint64_t ModelStackVersion = 0;
  uint64_t CachedModelStackVersion = 0;
  uint64_t CachedCCVersion = 0;
  std::unordered_map<ModelQueryKey, int, ModelQueryKeyHash> ResolveCache;
};

} // namespace fg

#endif // FG_CORE_CHECK_H
