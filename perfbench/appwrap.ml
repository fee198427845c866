(* Host time spent in application code, measured from outside the
   library by wrapping every [App.t] callback.

   [execute] runs inside a simulator fiber and suspends inside
   [ctx_read] (a remote read parks the fiber) and [ctx_charge] (charged
   CPU time is a virtual sleep): while it is parked, other fibers run.
   The wrapper therefore pauses the callback's timer across every
   [ctx_*] call, so [exec_ns] holds only the application's own code.
   The routing callbacks ([read_set], [placement_of], ...) never
   suspend and are timed whole into [route_ns]. *)

open Heron_core

type t = { mutable exec_ns : int; mutable route_ns : int }

let create () = { exec_ns = 0; route_ns = 0 }

let wrap ?(now = Host.now_ns) t (app : ('req, 'resp) App.t) : ('req, 'resp) App.t =
  let route f x =
    let t0 = now () in
    let r = f x in
    t.route_ns <- t.route_ns + (now () - t0);
    r
  in
  let execute (ctx : App.ctx) req =
    let self = ref 0 and since = ref (now ()) in
    let pause f x =
      self := !self + (now () - !since);
      Fun.protect ~finally:(fun () -> since := now ()) (fun () -> f x)
    in
    let ctx' =
      {
        ctx with
        App.ctx_read = pause ctx.App.ctx_read;
        ctx_read_opt = pause ctx.App.ctx_read_opt;
        ctx_is_local = pause ctx.App.ctx_is_local;
        ctx_write = (fun oid v -> pause (ctx.App.ctx_write oid) v);
        ctx_charge = pause ctx.App.ctx_charge;
      }
    in
    let account () = t.exec_ns <- t.exec_ns + !self + (now () - !since) in
    Fun.protect ~finally:account (fun () -> app.App.execute ctx' req)
  in
  {
    app with
    App.placement_of = route app.App.placement_of;
    klass_of = route app.App.klass_of;
    read_set = route app.App.read_set;
    read_plan = (fun ~part req -> route (app.App.read_plan ~part) req);
    write_sketch = route app.App.write_sketch;
    req_size = route app.App.req_size;
    resp_size = route app.App.resp_size;
    serial_hint = route app.App.serial_hint;
    read_only = route app.App.read_only;
    execute;
  }
