/* The runtime interface the generated code calls: every type and ink_* hook
   that ir.EmitC prints, for artifacts/interpreter.c and for the fused
   pipelines inkfuse.GeneratedC renders. The engine runs the closure-compiled
   form of the same IR; this header lets a C compiler check the rendered text:

     cc -fsyntax-only -std=c11 -include artifacts/inkfuse.h artifacts/interpreter.c

   Rows are packed as [4-byte key length][key bytes][payload]. */
#include <stdbool.h>
#include <stdint.h>

typedef struct { const char* ptr; int64_t len; } ink_str_t;
typedef struct { void* data; } ink_vec_t;
typedef struct { ink_vec_t** cols; int64_t rows; } ink_chunk_t;

typedef struct ink_agg_table ink_agg_table_t;
typedef struct ink_join_table ink_join_table_t;
typedef struct ink_like_matcher ink_like_matcher_t;
typedef struct ink_string_set ink_string_set_t;

typedef struct { ink_agg_table_t* table; } ink_agg_state_t;
typedef struct { ink_join_table_t* table; } ink_join_state_t;
typedef struct { int64_t off; } ink_offset_t;
typedef struct { bool b; int32_t i32; int64_t i64; double f64; ink_str_t str; } ink_const_t;
typedef struct { ink_like_matcher_t* m; } ink_like_state_t;
typedef struct { ink_string_set_t* set; } ink_inlist_state_t;
typedef struct { const bool* t; } ink_codetable_t;
typedef struct { const ink_str_t* values; } ink_dict_t;
typedef struct { ink_join_table_t* table; uint64_t hash; int64_t pos; } ink_match_iter_t;

char* ink_make_row(void* state, int64_t i);
char* ink_append_str(char* row, void* state, ink_str_t s);
char* ink_seal_key(void* state, char* row);
ink_str_t ink_row_key(const char* row);
int64_t ink_row_key_len(const char* row);
int64_t ink_payload_off(const char* row);
ink_str_t ink_unpack_str_key(const char* row, void* state);
ink_str_t ink_unpack_str_payload(const char* row, void* state);
uint64_t ink_hash(ink_str_t key);

char* ink_agg_find_or_create(ink_agg_table_t* t, ink_str_t key, uint64_t hash);
char* ink_agg_find_or_create_direct(ink_agg_table_t* t, ...); /* key's C type is its kind's */
char** ink_agg_find_or_create_batch(ink_agg_table_t* t, char** rows, int64_t n);
char** ink_agg_find_or_create_direct_batch(ink_agg_table_t* t, const void* keys, int64_t n);

void ink_join_insert(ink_join_table_t* t, char* row, uint64_t hash);
void ink_join_insert_batch(ink_join_table_t* t, char** rows, int64_t n);
ink_match_iter_t ink_join_lookup(ink_join_table_t* t, ink_str_t key);
char* ink_match_next(ink_match_iter_t* it);
bool ink_join_exists(ink_join_table_t* t, ink_str_t key);
void ink_join_prefetch(ink_join_table_t* t, ink_str_t key);
void ink_join_prefetch_batch(ink_join_table_t* t, char** rows, int64_t n);

int ink_strcmp(ink_str_t a, ink_str_t b);
ink_str_t ink_str_lower(ink_str_t s);
bool ink_like(ink_like_matcher_t* m, ink_str_t s);
bool ink_in_list(ink_string_set_t* set, ink_str_t s);
double ink_min_f64(double a, double b);
double ink_max_f64(double a, double b);
int32_t ink_min_i32(int32_t a, int32_t b);
int32_t ink_max_i32(int32_t a, int32_t b);
