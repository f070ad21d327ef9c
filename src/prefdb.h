// Umbrella header for the prefdb library — a faithful implementation of
// W. Kießling, "Foundations of Preferences in Database Systems"
// (VLDB 2002): preferences as strict partial orders, preference
// engineering, the preference algebra, BMO query evaluation, and the
// Preference SQL / Preference XPATH language embeddings.

#ifndef PREFDB_PREFDB_H_
#define PREFDB_PREFDB_H_

#include "algebra/equivalence.h"
#include "algebra/laws.h"
#include "algebra/simplifier.h"
#include "core/base_preferences.h"
#include "core/complex_preferences.h"
#include "core/hierarchy.h"
#include "core/numeric_preferences.h"
#include "core/preference.h"
#include "datagen/cars.h"
#include "datagen/random_terms.h"
#include "datagen/vectors.h"
#include "engine/engine.h"
#include "eval/better_than_graph.h"
#include "eval/bmo.h"
#include "eval/decomposition.h"
#include "eval/negotiation.h"
#include "eval/optimizer.h"
#include "eval/physical_plan.h"
#include "eval/quality.h"
#include "eval/ranked.h"
#include "exec/hardware.h"
#include "exec/score_table.h"
#include "exec/simd/dominance.h"
#include "ivm/maintained_view.h"
#include "stats/stats.h"
#include "mining/miner.h"
#include "psql/catalog.h"
#include "psql/executor.h"
#include "psql/parser.h"
#include "psql/translator.h"
#include "pxpath/xml.h"
#include "pxpath/xpath.h"
#include "relation/csv.h"
#include "relation/date.h"
#include "repo/repository.h"
#include "repo/serializer.h"
#include "relation/relation.h"

#endif  // PREFDB_PREFDB_H_
