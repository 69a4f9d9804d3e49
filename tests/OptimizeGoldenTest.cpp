//===- tests/OptimizeGoldenTest.cpp - Pinned optimizer and AOT output -----===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
// OptimizeTest and SpecializeTest check properties of the -O1 and -O2
// pipelines: the type and the value are preserved and the advertised
// rewrites fire.  This test pins their exact output.  For every
// examples/programs file, the modules example, the fglib root and every
// conformance fixture that compiles, opened with fg::open as fgc opens
// it, it checks
//
//   * the FNV-1a of sf::termToString of the -O1 and of the -O2 term;
//   * the OptimizeStats counters of both runs;
//   * the FNV-1a of aot::emitCpp of the -O2 term (no host compiler is
//     needed for that).
//
// A change to how the passes or the emitter walk terms must leave every
// row as it is.  A change meant to alter their output updates the
// table: on a mismatch the test prints the program's new row and the
// term that changed.
//
//===----------------------------------------------------------------------===//

#include "aot/CppEmitter.h"
#include "modules/Loader.h"
#include "support/Hash.h"
#include "syntax/Frontend.h"
#include <algorithm>
#include <filesystem>
#include <gtest/gtest.h>
#include <map>
#include <sstream>

using namespace fg;
namespace fs = std::filesystem;

namespace {

struct Golden {
  const char *Program; ///< Relative to the source root.
  const char *O1;      ///< summary() of the -O1 run.
  const char *O2;      ///< summary() of the -O2 run.
  const char *Cpp;     ///< FNV-1a of the C++ emitted for the -O2 term.
};

// clang-format off
const Golden Table[] = {
    {"examples/programs/extensions_showcase.fg",
     "43caf465fde8f5c1 nodes 148->94 tyapps 3 lets 17 proj 6 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 7/0",
     "a900e1b6bfeb2680 nodes 148->96 tyapps 0 lets 19 proj 5 dead 2 clones 7 hits 16 devirt 1 params 0 fields 0 budget 0 noop 14/1",
     "52a261e5387991a1"},
    {"examples/programs/figure1_square.fg",
     "02d4d9bafbc4d8f1 nodes 20->4 tyapps 1 lets 5 proj 1 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 8/0",
     "02d4d9bafbc4d8f1 nodes 20->4 tyapps 0 lets 5 proj 1 dead 1 clones 1 hits 0 devirt 0 params 0 fields 0 budget 0 noop 16/1",
     "7a1a750258202fef"},
    {"examples/programs/figure3_higher_order_sum.fg",
     "aab8e2694cb2a404 nodes 42->38 tyapps 1 lets 1 proj 0 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 7/3",
     "53c10dc4f57d71a9 nodes 42->47 tyapps 0 lets 1 proj 0 dead 1 clones 6 hits 1 devirt 0 params 0 fields 0 budget 0 noop 12/6",
     "1d5208e5d5f68091"},
    {"examples/programs/figure5_accumulate.fg",
     "84733704d6220def nodes 59->34 tyapps 1 lets 8 proj 3 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 8/0",
     "7f326ebcdc91ee90 nodes 59->43 tyapps 0 lets 10 proj 3 dead 1 clones 6 hits 1 devirt 0 params 0 fields 0 budget 0 noop 15/1",
     "306856dda8ba6e9b"},
    {"examples/programs/figure6_overlapping_models.fg",
     "779c7fc47c2609e1 nodes 77->58 tyapps 2 lets 13 proj 6 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 7/0",
     "09c0145b03468ce9 nodes 77->64 tyapps 0 lets 13 proj 6 dead 1 clones 6 hits 5 devirt 0 params 0 fields 0 budget 0 noop 14/1",
     "3a7dd7a2e8b7ca8d"},
    {"examples/programs/graph_reachability.fg",
     "fa902a29e2151f45 nodes 341->843 tyapps 4 lets 32 proj 16 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 12/2",
     "086212244cbdd0ab nodes 341->754 tyapps 0 lets 49 proj 16 dead 2 clones 12 hits 97 devirt 4 params 0 fields 0 budget 0 noop 22/2",
     "a98d958b0d309e46"},
    {"examples/programs/monoid_power.fg",
     "35839580b731c3d8 nodes 65->42 tyapps 1 lets 6 proj 5 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 8/0",
     "35839580b731c3d8 nodes 65->42 tyapps 0 lets 6 proj 5 dead 1 clones 1 hits 0 devirt 0 params 0 fields 0 budget 0 noop 16/1",
     "7548484cd1bb0ff5"},
    {"examples/programs/parameterized_list_monoid.fg",
     "b381aabb681f69cf nodes 125->161 tyapps 6 lets 4 proj 0 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 7/3",
     "72720260430fa60f nodes 125->190 tyapps 4 lets 7 proj 0 dead 1 clones 22 hits 9 devirt 0 params 0 fields 0 budget 0 noop 16/6",
     "e502e823bca4ced4"},
    {"examples/programs/parameterized_recursive_eq.fg",
     "b8d2d959e4a19419 nodes 128->209 tyapps 6 lets 11 proj 6 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 8/0",
     "dfcc15c2e377981f nodes 128->197 tyapps 0 lets 18 proj 6 dead 2 clones 13 hits 35 devirt 0 params 0 fields 0 budget 0 noop 13/1",
     "eeb823ca3628586e"},
    {"examples/programs/section52_refinement_via_assoc.fg",
     "529cd98365944ba5 nodes 33->6 tyapps 1 lets 8 proj 3 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 9/2",
     "529cd98365944ba5 nodes 33->6 tyapps 0 lets 8 proj 3 dead 1 clones 1 hits 0 devirt 0 params 0 fields 0 budget 0 noop 20/3",
     "d797a323919e1639"},
    {"examples/programs/section5_iterator_accumulate.fg",
     "77db075663c02f1b nodes 79->34 tyapps 1 lets 13 proj 6 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 9/2",
     "18e3968b7fa0796d nodes 79->43 tyapps 0 lets 13 proj 6 dead 1 clones 6 hits 1 devirt 0 params 0 fields 0 budget 0 noop 20/3",
     "24b91e7cc0a41749"},
    {"examples/programs/section5_merge.fg",
     "998fc869adcc96a6 nodes 193->157 tyapps 1 lets 27 proj 19 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 9/2",
     "e2e7f0140c8544f1 nodes 193->137 tyapps 0 lets 38 proj 19 dead 1 clones 6 hits 8 devirt 0 params 0 fields 0 budget 0 noop 19/2",
     "c5850569c41e6aad"},
    {"examples/programs/stl_algorithms.fg",
     "9c095ff420041fef nodes 177->146 tyapps 7 lets 22 proj 10 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 9/2",
     "645c0f51e7ef34b9 nodes 177->145 tyapps 4 lets 33 proj 10 dead 2 clones 13 hits 11 devirt 0 params 0 fields 0 budget 0 noop 19/5",
     "6001b270da4f18c2"},
    {"examples/programs/unqualified_members.fg",
     "b9458e7fded3f4f2 nodes 53->32 tyapps 1 lets 6 proj 3 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 8/0",
     "3dc2cdc265f2869c nodes 53->41 tyapps 0 lets 6 proj 3 dead 1 clones 6 hits 1 devirt 0 params 0 fields 0 budget 0 noop 15/1",
     "595c91179013e231"},
    {"tests/conformance/001_int_literal.fg",
     "07ee7e07b4b19223 nodes 1->1 tyapps 0 lets 0 proj 0 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 4/0",
     "07ee7e07b4b19223 nodes 1->1 tyapps 0 lets 0 proj 0 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 7/0",
     "dcbfa69d3feea5d2"},
    {"tests/conformance/002_bool_literal.fg",
     "b5fae2c14238b978 nodes 1->1 tyapps 0 lets 0 proj 0 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 4/0",
     "b5fae2c14238b978 nodes 1->1 tyapps 0 lets 0 proj 0 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 7/0",
     "978a07344c8bda1e"},
    {"tests/conformance/003_arithmetic.fg",
     "86644e03b77f7bf6 nodes 10->10 tyapps 0 lets 0 proj 0 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 4/0",
     "86644e03b77f7bf6 nodes 10->10 tyapps 0 lets 0 proj 0 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 7/0",
     "5850c1ccdaa1bfe6"},
    {"tests/conformance/004_let_shadowing.fg",
     "5b5c98ef514dbfa5 nodes 5->1 tyapps 0 lets 1 proj 0 dead 1 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 6/1",
     "5b5c98ef514dbfa5 nodes 5->1 tyapps 0 lets 1 proj 0 dead 1 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 11/2",
     "fb3cfa2fe4e7d5bf"},
    {"tests/conformance/005_lambda_closure.fg",
     "943b1b819ed16266 nodes 12->4 tyapps 0 lets 3 proj 0 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 8/2",
     "943b1b819ed16266 nodes 12->4 tyapps 0 lets 3 proj 0 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 16/3",
     "bd76f7053e1276b2"},
    {"tests/conformance/006_tuples.fg",
     "5c09010c212f8d2f nodes 6->6 tyapps 0 lets 0 proj 0 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 4/0",
     "5c09010c212f8d2f nodes 6->6 tyapps 0 lets 0 proj 0 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 7/0",
     "b940bff931fcb2e6"},
    {"tests/conformance/007_generic_identity.fg",
     "9ebc57e6e9b40a9f nodes 13->3 tyapps 2 lets 3 proj 0 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 7/2",
     "9ebc57e6e9b40a9f nodes 13->3 tyapps 0 lets 4 proj 0 dead 1 clones 2 hits 0 devirt 0 params 0 fields 0 budget 0 noop 15/3",
     "a30df61760101305"},
    {"tests/conformance/008_lists.fg",
     "5c79f43870e8bf85 nodes 16->16 tyapps 0 lets 0 proj 0 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 4/0",
     "06730efbe7983bcf nodes 16->22 tyapps 0 lets 0 proj 0 dead 0 clones 4 hits 2 devirt 0 params 0 fields 0 budget 0 noop 7/6",
     "aa0dd33a0ec2293f"},
    {"tests/conformance/009_fix_fib.fg",
     "7f3bb57d4a10883b nodes 25->25 tyapps 0 lets 0 proj 0 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 4/0",
     "7f3bb57d4a10883b nodes 25->25 tyapps 0 lets 0 proj 0 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 7/0",
     "f21c0801cef886d3"},
    {"tests/conformance/010_concept_model_member.fg",
     "295cf7aa492f8e6b nodes 13->4 tyapps 0 lets 3 proj 1 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 7/2",
     "295cf7aa492f8e6b nodes 13->4 tyapps 0 lets 2 proj 0 dead 1 clones 0 hits 0 devirt 1 params 0 fields 0 budget 0 noop 15/3",
     "27081e4e592f761d"},
    {"tests/conformance/011_refinement_diamond.fg",
     "ebcd90d4aba45d5d nodes 35->4 tyapps 0 lets 8 proj 7 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 6/0",
     "ebcd90d4aba45d5d nodes 35->4 tyapps 0 lets 1 proj 0 dead 7 clones 0 hits 0 devirt 7 params 0 fields 0 budget 0 noop 10/2",
     "a74b8c9691bfdcc3"},
    {"tests/conformance/012_where_clause.fg",
     "f3ae6306ed8d99c8 nodes 20->4 tyapps 1 lets 5 proj 1 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 8/0",
     "f3ae6306ed8d99c8 nodes 20->4 tyapps 0 lets 5 proj 1 dead 1 clones 1 hits 0 devirt 0 params 0 fields 0 budget 0 noop 16/1",
     "01977bc9e8c3e4ce"},
    {"tests/conformance/013_assoc_resolution.fg",
     "92d2b9e4d92423cc nodes 14->5 tyapps 0 lets 3 proj 1 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 7/2",
     "7b419d9de67d463d nodes 14->7 tyapps 0 lets 2 proj 0 dead 1 clones 1 hits 0 devirt 1 params 0 fields 0 budget 0 noop 14/3",
     "5d98827b5a122f5d"},
    {"tests/conformance/014_same_type_ok.fg",
     "24edfa0921eb9f6b nodes 15->4 tyapps 1 lets 3 proj 0 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 10/2",
     "24edfa0921eb9f6b nodes 15->4 tyapps 0 lets 3 proj 0 dead 1 clones 1 hits 0 devirt 0 params 0 fields 0 budget 0 noop 21/3",
     "cc31d5a06a8d6a83"},
    {"tests/conformance/018_overlapping_models.fg",
     "100290c78dd87843 nodes 36->9 tyapps 2 lets 11 proj 2 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 8/2",
     "100290c78dd87843 nodes 36->9 tyapps 0 lets 11 proj 2 dead 1 clones 1 hits 1 devirt 0 params 0 fields 0 budget 0 noop 19/3",
     "c6b59d0ca8ac9759"},
    {"tests/conformance/019_type_alias.fg",
     "e146e7535a2d495a nodes 7->7 tyapps 0 lets 0 proj 0 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 4/0",
     "e146e7535a2d495a nodes 7->7 tyapps 0 lets 0 proj 0 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 7/0",
     "979293121935d591"},
    {"tests/conformance/020_named_models.fg",
     "7cec1620a15b0047 nodes 15->3 tyapps 0 lets 4 proj 2 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 6/0",
     "7cec1620a15b0047 nodes 15->3 tyapps 0 lets 2 proj 0 dead 2 clones 0 hits 0 devirt 2 params 0 fields 0 budget 0 noop 10/2",
     "5adb0012d4c730f4"},
    {"tests/conformance/021_default_member.fg",
     "d9e0686e9d797fe8 nodes 19->6 tyapps 0 lets 4 proj 1 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 7/2",
     "d9e0686e9d797fe8 nodes 19->6 tyapps 0 lets 3 proj 0 dead 1 clones 0 hits 0 devirt 1 params 0 fields 0 budget 0 noop 15/3",
     "2fdb119479fa0fa8"},
    {"tests/conformance/022_parameterized_model.fg",
     "4adb07ac6b890578 nodes 36->28 tyapps 1 lets 2 proj 1 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 9/0",
     "47aafc54d25ef31c nodes 36->36 tyapps 1 lets 2 proj 1 dead 0 clones 4 hits 0 devirt 0 params 0 fields 0 budget 0 noop 17/6",
     "d1b508dcedbc2abd"},
    {"tests/conformance/023_unqualified_member.fg",
     "b2a132cd56a4cef9 nodes 14->4 tyapps 0 lets 3 proj 2 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 6/0",
     "b2a132cd56a4cef9 nodes 14->4 tyapps 0 lets 2 proj 0 dead 1 clones 0 hits 0 devirt 2 params 0 fields 0 budget 0 noop 10/2",
     "d223d3ff385b73e5"},
    {"tests/conformance/026_nested_requirement.fg",
     "72cff60276355a62 nodes 37->12 tyapps 1 lets 7 proj 3 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 5/2",
     "28a1f85d1e2719cb nodes 37->17 tyapps 1 lets 9 proj 3 dead 0 clones 3 hits 0 devirt 0 params 0 fields 0 budget 0 noop 11/2",
     "8101d56ab8734391"},
    {"tests/conformance/027_rank2_parameter.fg",
     "e93d953207093957 nodes 14->3 tyapps 2 lets 3 proj 0 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 7/2",
     "e93d953207093957 nodes 14->3 tyapps 2 lets 3 proj 0 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 15/3",
     "df896f6f96bb4003"},
    {"tests/conformance/029_runtime_car_nil.fg",
     "e4985f9502f00375 nodes 5->5 tyapps 0 lets 0 proj 0 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 4/0",
     "205c95e87c4afefd nodes 5->9 tyapps 0 lets 0 proj 0 dead 0 clones 2 hits 0 devirt 0 params 0 fields 0 budget 0 noop 7/6",
     "07490292e3f16e8c"},
    {"tests/conformance/030_shadowed_concepts.fg",
     "7cec1620a15b0047 nodes 17->3 tyapps 0 lets 5 proj 2 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 6/0",
     "7cec1620a15b0047 nodes 17->3 tyapps 0 lets 3 proj 0 dead 2 clones 0 hits 0 devirt 2 params 0 fields 0 budget 0 noop 10/2",
     "5adb0012d4c730f4"},
    {"tests/conformance/031_duplicate_param.fg",
     "af63af4c8601a015 nodes 5->1 tyapps 0 lets 1 proj 0 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 5/2",
     "af63af4c8601a015 nodes 5->1 tyapps 0 lets 1 proj 0 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 10/3",
     "fe48ea94a98874ec"},
    {"tests/conformance/032_fuzz_monoid_fold.fg",
     "a0b6d41ed50920f3 nodes 67->50 tyapps 1 lets 5 proj 2 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 8/0",
     "a6835e5ddd898cb2 nodes 67->58 tyapps 0 lets 5 proj 2 dead 1 clones 6 hits 2 devirt 0 params 0 fields 0 budget 0 noop 15/1",
     "6c194dae9542bf36"},
    {"tests/conformance/033_fuzz_refines_show.fg",
     "4111b2f3b270c50b nodes 93->29 tyapps 1 lets 8 proj 3 dead 5 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 8/2",
     "920fd54fa2e4fcc7 nodes 93->27 tyapps 0 lets 10 proj 3 dead 6 clones 1 hits 0 devirt 0 params 0 fields 0 budget 0 noop 18/3",
     "cacd41ea73f71b0c"},
    {"tests/conformance/034_specialize_budget.fg",
     "a7630a55d4c67a95 nodes 113->70 tyapps 9 lets 11 proj 0 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 7/2",
     "e221c472fc6bb75f nodes 113->42 tyapps 8 lets 18 proj 0 dead 1 clones 1 hits 0 devirt 0 params 7 fields 0 budget 1 noop 17/5",
     "c04b72e83b06c497"},
    {"tests/conformance/035_aot_residual_dispatch.fg",
     "747c5fd7fef0115e nodes 73->48 tyapps 2 lets 7 proj 3 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 8/0",
     "c59902c842ae03d7 nodes 73->55 tyapps 1 lets 9 proj 3 dead 1 clones 6 hits 2 devirt 0 params 0 fields 0 budget 0 noop 16/5",
     "194e0f546c5430a7"},
    {"examples/programs/modules/main.fg",
     "0dad2f09b0584736 nodes 86->75 tyapps 2 lets 9 proj 6 dead 0 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 8/0",
     "923b9aa9bf9d26da nodes 86->76 tyapps 0 lets 9 proj 6 dead 1 clones 6 hits 10 devirt 0 params 0 fields 0 budget 0 noop 15/1",
     "99e191052c72d2b1"},
    {"examples/fglib/fglib.fg",
     "feb9c6f0fe0783c9 nodes 1354->1191 tyapps 23 lets 57 proj 42 dead 36 clones 0 hits 0 devirt 0 params 0 fields 0 budget 0 noop 7/2",
     "fdbc7dfd60702a59 nodes 1354->1052 tyapps 10 lets 65 proj 44 dead 47 clones 22 hits 151 devirt 1 params 0 fields 0 budget 0 noop 13/3",
     "fb0c480cdbd73276"},
};
// clang-format on

/// The term's hash and the counters of the run that produced it.
std::string summary(const std::string &Printed, const sf::OptimizeStats &S) {
  std::ostringstream OS;
  OS << hashToHex(fnv1a64(Printed)) << " nodes " << S.NodesBefore << "->"
     << S.NodesAfter << " tyapps " << S.TypeAppsInlined << " lets "
     << S.LetsInlined << " proj " << S.ProjectionsFolded << " dead "
     << S.DeadLetsRemoved << " clones " << S.ClonesCreated << " hits "
     << S.SpecCacheHits << " devirt " << S.MembersDevirtualized
     << " params " << S.DictParamsEliminated << " fields "
     << S.DictFieldsEliminated << " budget " << S.BudgetHits << " noop "
     << S.NoopPassRuns << "/" << S.NoopPassSkips;
  return OS.str();
}

/// The programs the table must cover, relative to the source root.
std::vector<std::string> programs() {
  std::vector<std::string> Out;
  for (const char *Dir : {"examples/programs", "tests/conformance"}) {
    std::vector<std::string> Files;
    for (const auto &E : fs::directory_iterator(fs::path(FG_SOURCE_DIR) / Dir))
      if (E.path().extension() == ".fg")
        Files.push_back(std::string(Dir) + "/" +
                        E.path().filename().string());
    std::sort(Files.begin(), Files.end());
    Out.insert(Out.end(), Files.begin(), Files.end());
  }
  Out.push_back("examples/programs/modules/main.fg");
  Out.push_back("examples/fglib/fglib.fg");
  return Out;
}

TEST(OptimizeGoldenTest, OutputMatchesThePinnedTable) {
  std::map<std::string, const Golden *> Rows;
  for (const Golden &G : Table)
    Rows[G.Program] = &G;

  for (const std::string &Rel : programs()) {
    SCOPED_TRACE(Rel);
    OpenRequest Req;
    Req.Path = (fs::path(FG_SOURCE_DIR) / Rel).string();
    Frontend FE;
    std::string Diagnostics;
    CompileOutput Out =
        fg::open(std::move(Req)).compile(FE, CompileOptions(), Diagnostics);
    if (!Out.Success) {
      // Conformance fixtures that expect a compile error have no row.
      EXPECT_EQ(Rel.rfind("tests/conformance/", 0), 0u)
          << "failed to compile";
      EXPECT_EQ(Rows.count(Rel), 0u) << "a row for a program that fails";
      continue;
    }

    sf::OptimizeStats S1, S2;
    sf::OptimizeOptions O1, O2;
    O2.Specialize = sf::SpecializeLevel::Full;
    std::string T1 = sf::termToString(FE.optimize(Out, &S1, O1));
    const sf::Term *T2 = FE.optimize(Out, &S2, O2);
    std::string Printed2 = sf::termToString(T2);
    aot::EmittedProgram Cpp = aot::emitCpp(T2, FE.getPrelude());
    std::string Got1 = summary(T1, S1), Got2 = summary(Printed2, S2);
    std::string GotCpp =
        hashToHex(fnv1a64(Cpp.ok() ? Cpp.Cpp : "error: " + Cpp.Error));

    std::string NewRow = "    {\"" + Rel + "\",\n     \"" + Got1 +
                         "\",\n     \"" + Got2 + "\",\n     \"" + GotCpp +
                         "\"},";
    auto It = Rows.find(Rel);
    if (It == Rows.end()) {
      ADD_FAILURE() << "no golden row; add\n" << NewRow;
      continue;
    }
    const Golden &G = *It->second;
    Rows.erase(It);
    EXPECT_EQ(Got1, G.O1) << "-O1 term:\n" << T1 << "\nnew row:\n" << NewRow;
    EXPECT_EQ(Got2, G.O2) << "-O2 term:\n"
                          << Printed2 << "\nnew row:\n"
                          << NewRow;
    EXPECT_EQ(GotCpp, G.Cpp) << "C++ of the -O2 term changed; new row:\n"
                             << NewRow;
  }
  for (const auto &[Rel, G] : Rows)
    ADD_FAILURE() << "golden row for a program not found: " << Rel;
}

} // namespace
