let f_row (p : Params.t) i =
  if i < 0 || i >= p.d then invalid_arg "Layout.f_row: coefficient index out of range";
  i

let g_row (p : Params.t) i =
  if i < 0 || i >= p.d then invalid_arg "Layout.g_row: coefficient index out of range";
  p.d + i

let z_row (p : Params.t) = 2 * p.d
let gbas_row (p : Params.t) = (2 * p.d) + 1

let hist_row (p : Params.t) i =
  if i < 0 || i >= p.rho then invalid_arg "Layout.hist_row: word index out of range";
  (2 * p.d) + 2 + i

let phash_row (p : Params.t) = (2 * p.d) + p.rho + 2
let data_row (p : Params.t) = (2 * p.d) + p.rho + 3

let cell (p : Params.t) ~row j =
  if row < 0 || row >= Params.rows p then invalid_arg "Layout.cell: row out of range";
  if j < 0 || j >= p.s then invalid_arg "Layout.cell: column out of range";
  (j * Params.rows p) + row

let column_stride = Params.rows

let z_replicas (p : Params.t) res =
  if res < 0 || res >= p.r then invalid_arg "Layout.z_replicas: residue out of range";
  (p.s - res + p.r - 1) / p.r

let group_of_bucket (p : Params.t) bk = bk mod p.m
let index_in_group (p : Params.t) bk = bk / p.m

let bucket_of_group_index (p : Params.t) ~group k =
  if group < 0 || group >= p.m then invalid_arg "Layout.bucket_of_group_index: bad group";
  if k < 0 || k >= p.g_per_group then invalid_arg "Layout.bucket_of_group_index: bad index";
  (k * p.m) + group
